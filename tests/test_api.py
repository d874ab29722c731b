import spinboson_nrg
from spinboson_nrg import engine, observables

PUBLIC = {
    "AlphaMaxResult",
    "ConvergenceReport",
    "DomainError",
    "EngineError",
    "IterationState",
    "KondoParams",
    "NRGConfig",
    "ObservableRecord",
    "SpinBosonPoint",
    "SweepSpec",
    "WilsonChain",
    "build_chain",
    "compare_with_nrg",
    "entanglement_entropy",
    "exact_ground",
    "find_alpha_max",
    "hellmann_feynman_check",
    "iterate",
    "map_to_kondo",
    "noninteracting_reference",
    "preset",
    "read_json_records",
    "renormalized_tunneling",
    "run",
    "run_point",
    "run_sweep",
    "verify",
    "write_output",
}


def test_public_names():
    assert len(spinboson_nrg.__all__) == len(PUBLIC) == 28
    assert set(spinboson_nrg.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(spinboson_nrg, name) is not None


def test_step_functions_stay_module_attributes(monkeypatch):
    # perfbench/layertrace.py wraps these by name, so `iterate` must look
    # them up at call time
    calls = []
    for owner, name in (
        (engine, "add_site"),
        (engine, "truncate"),
        (observables, "propagate"),
        (observables, "ground_expectation_raw"),
    ):
        original = getattr(owner, name)

        def wrapped(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, wrapped)
    k = spinboson_nrg.KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05)
    for _ in spinboson_nrg.iterate(k, spinboson_nrg.build_chain(2.0, 2), 16):
        pass
    assert sorted(set(calls)) == [
        "add_site", "ground_expectation_raw", "propagate", "truncate"
    ]

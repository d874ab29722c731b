"""How the solver is certified against brute force.

Three independent cross-checks, all runnable in seconds:

1. On short chains the full many-body problem fits in memory, so the
   iterative solver (run untruncated) must reproduce every eigenvalue and
   the local observables of a dense exact diagonalization.
2. The ground-state spin-flip correlator must equal the derivative of the
   ground energy with respect to the transverse coupling, a relation that
   holds exactly at the model level.  Both sides come from the iterative
   solver: E0 is the ground energy it accumulates, so the same check also
   runs truncated at full depth, where its residual is the truncation error.
3. Truncation must show up: at full depth the same residual measures what
   discarding states costs, and it must shrink as more states are kept.
"""

from spinboson_nrg import (
    KondoParams,
    build_chain,
    compare_with_nrg,
    hellmann_feynman_check,
)

k = KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05)
print(f"couplings: rho0*Jperp = {k.rho0_jperp}, rho0*Jpar = {k.rho0_jpar},"
      f" field = {k.field}")

print("\n1. untruncated iterative solver vs dense exact diagonalization")
for sites in (2, 3, 4, 5):
    chain = build_chain(2.0, sites)
    cmp = compare_with_nrg(k, chain, sites)
    print(f"   {sites} sites ({2 * 4**sites:5d} states):"
          f" max eigenvalue dev {cmp.max_eigenvalue_dev:.2e},"
          f" observable dev {max(cmp.sx_dev, cmp.sz_dev):.2e},"
          f" passed={cmp.passed}")

print("\n2. energy-derivative identity (central difference in J_perp of the"
      " solver's E0)")
chain = build_chain(2.0, 4)
for dj_rel in (1e-2, 1e-3, 1e-4):
    hf = hellmann_feynman_check(k, chain, 4, dj=dj_rel * k.jperp)
    print(f"   dj = {dj_rel:.0e} * Jperp: residual {hf.residual:.2e}"
          f" (quadratic in the step)")

print("\n3. truncation is visible (the same residual at 12 sites)")
chain = build_chain(2.0, 12)
for n_keep in (16, 50, 150, 400):
    hf = hellmann_feynman_check(k, chain, 12, n_keep)
    print(f"   keeping {n_keep:3d} states: residual {hf.residual:.2e}")

print("\nThe same machinery backs `spinboson-nrg verify` and the acceptance"
      " test suite.")

"""Fermionic site conventions shared by the chain solver and the ED oracle.

A single chain site has four Fock states ordered (empty, up, down, double).
In the global Jordan-Wigner ordering, orbitals are sorted by site index and,
within a site, up precedes down; the impurity spin carries no fermion number
and sits outside the fermion string.
"""

import numpy as np

EMPTY, UP, DN, DOUBLE = 0, 1, 2, 3
LOCAL_STATES = (EMPTY, UP, DN, DOUBLE)

# per local state: electron count, charge relative to half filling, 2*Sz
N_EL = (0, 1, 1, 2)
DQ = (-1, 0, 0, 1)
DTSZ = (0, 1, -1, 0)

# f^dag_up / f^dag_dn on the 4-state site basis.  The -1 entry accounts for
# the up orbital of the same site preceding the down orbital.
FDAG_UP = np.zeros((4, 4))
FDAG_UP[UP, EMPTY] = 1.0
FDAG_UP[DOUBLE, DN] = 1.0

FDAG_DN = np.zeros((4, 4))
FDAG_DN[DN, EMPTY] = 1.0
FDAG_DN[DOUBLE, UP] = -1.0

FDAG_UP.flags.writeable = False
FDAG_DN.flags.writeable = False

# the spin flip F on one site: the image of each local state and its sign.
# f^dag_dn f^dag_up = -f^dag_up f^dag_dn puts -1 on the double, so that
# F f^dag_up F = f^dag_dn.
FLIP = (EMPTY, DN, UP, DOUBLE)
FLIP_SIGN = (1.0, 1.0, 1.0, -1.0)

# the particle-hole map P on site n, with s = (-1)^n: empty -> double,
# up -> -s up, dn -> -s dn, double -> -empty.  It takes c_{n sigma} to
# s sigma c^dag_{n, -sigma}, so the hopping, the site-0 exchange and the
# impurity field are unchanged.  P^2 is -1 on the empty and double states.
PH = (DOUBLE, UP, DN, EMPTY)
PH_SIGN = ((1.0, -1.0, -1.0, -1.0), (1.0, 1.0, 1.0, -1.0))  # even, odd n

# impurity 2*Sz values
IMP_UP, IMP_DN = 1, -1

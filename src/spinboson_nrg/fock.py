"""Fermionic site conventions shared by the chain solver and the ED oracle.

A single chain site has four Fock states ordered (empty, up, down, double).
In the global Jordan-Wigner ordering, orbitals are sorted by site index and,
within a site, up precedes down; the impurity spin carries no fermion number
and sits outside the fermion string.

Charge isospin: on site n, I^+_n = (-1)^n f^dag_up f^dag_dn and I_z = DQ/2.
The empty state and (-1)^n times the double form a doublet (I_z = -1/2 and
+1/2), and up and down are singlets.  The staggered sign makes the hopping
between neighbouring sites commute with the sum of I^+_n.
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
# F f^dag_up F = f^dag_dn; it also flips the sign of I^+-, F I^+ F = -I^+.
FLIP = (EMPTY, DN, UP, DOUBLE)
FLIP_SIGN = (1.0, 1.0, 1.0, -1.0)

# impurity 2*Sz values
IMP_UP, IMP_DN = 1, -1

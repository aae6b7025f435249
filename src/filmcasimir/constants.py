"""Physical constants and the internal unit system.

Everything inside the library is expressed in eV (energy), nm (length)
and rad/s (angular frequency).  The SI values are CODATA 2022 literals, as
scipy.constants ships them (the tests check that), converted once, here.
"""

import math

EV_J = 1.602176634e-19          # J per eV (exact)
HBAR_JS = 1.0545718176461565e-34  # J s, h/(2 pi)
HBAR_EVS = HBAR_JS / EV_J       # eV s
C_M_S = 299792458.0             # m/s (exact)
C_NM_S = C_M_S * 1e9            # nm/s
M_E_KG = 9.1093837139e-31       # kg
EPS0_F_M = 8.8541878188e-12     # F/m
BOHR_NM = 5.29177210544e-11 * 1e9  # nm

# hbar^2 / (2 m_e) in eV nm^2; fixes the kinetic energy scale everywhere.
HBAR2_OVER_2ME = HBAR_JS**2 / (2.0 * M_E_KG * EV_J) * 1e18

# e^2 in Gaussian convention, i.e. e^2/(4 pi eps0), in eV nm.
E2_GAUSS = EV_J / (4.0 * math.pi * EPS0_F_M) * 1e9

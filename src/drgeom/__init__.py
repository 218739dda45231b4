"""Damek-Ricci geometry engine and Einstein-hypersurface obstruction harness."""

from .clifford import CliffordModule, build_module, is_symmetric_space, j_op, max_center_dim
from .curvature import CurvatureContext, jacobi_closed_batch, ricci_heisenberg, ricci_isotropy
from .dralgebra import DamekRicci, verify_heisenberg_identities
from .hypersurface import nomizu, probe_codazzi_floor
from .numkernel import MPoly, eig_sym, poly_reduce, rational_bisect
from .obstruction import (Check, LedgerReport, enumerate_dimension_cases,
                          general_case_ledger, replay_dimension_cases, replay_no_a,
                          replay_no_v, replay_no_z, replay_octonion_case,
                          replay_p_space_annihilation,
                          replay_quarter_eigenspace_jcompat)
from .spectrum import (NormalFrame, SpectralReport, alpha_cubic, eigenspaces, f_cubic_roots,
                       make_frame, psi_map, random_frame, xi_spectrum)

__version__ = "0.1.0"

"""quiverdyn: quiver representations for network dynamical systems.

Build quivers of subnetworks and quotients of coloured networks, verify
equivariance of polynomial vector-field tuples, and perform
symmetry-preserving local reductions (Lyapunov-Schmidt, center-manifold
Taylor jets, Lie-transform normal forms) in exact rational or float
arithmetic.
"""

from .errors import *  # noqa: F401,F403
from .polynomial import Poly, count_monomials, monomial_exponents  # noqa: F401
from .quiver import (Quiver, QuiverRepresentation,  # noqa: F401
                     Subrepresentation, validate_representation)
from .tuples import (PolyMap, PolyMapTuple, bracket_tuple,  # noqa: F401
                     check_equivariance, compose_tuple, identity_tuple,
                     linear_tuple, restrict_to_subrep)
from .network import (AdmissibleTemplate, ColouredNetwork,  # noqa: F401
                      InputBijection, ResponseFamily, check_admissible,
                      input_bijections, symmetry_groupoid,
                      validate_coloured_network)
from .builders import (GraphFibration, build_quoq, build_subq,  # noqa: F401
                       enumerate_fibrations, enumerate_quotients,
                       enumerate_subnetworks, induce_on_quotients,
                       induce_on_subnetworks, quotient_network,
                       subnetwork_network)
from .spectral import (EndomorphismTuple, SpectralCluster,  # noqa: F401
                       center_hyperbolic_split, check_endomorphism,
                       generalized_eigenspace_subrep, joint_spectrum,
                       kernel_image_split, sn_decomposition)
from .polyfield import (HomBasis, ad_operator_matrix, hom_basis,  # noqa: F401
                        homological_operator, lie_transform,
                        solve_homological)
from .lsreduction import (LSReduction, check_reduced_equivariance,  # noqa: F401
                          find_branches_1param, ls_reduce)
from .centermanifold import (CMExpansion, check_cm_equivariance,  # noqa: F401
                             cm_taylor, flow_consistency)
from .normalform import NormalFormResult, normal_form, verify_normal_form  # noqa: F401
from .fileio import (dump_json, load_json, network_from_json,  # noqa: F401
                     network_to_json, parse_poly_dsl,
                     representation_from_json, representation_to_json,
                     tuple_from_json, tuple_to_json)
from .casestudy import (CaseStudyReport, assemble_case_tuple,  # noqa: F401
                        build_case_quiver, casestudy_s10, check_case)

__version__ = "0.1.0"

"""Exact-arithmetic calculus for quaternionic Grassmannian cohomology rings,
Grothendieck-Witt form algebra, Koszul dualities and inverse-limit towers."""


class HgrcalcError(ValueError):
    """Base of the errors the library raises for input it cannot accept.

    Defined before the submodule imports below, whose error classes
    subclass it; the command line maps it to exit code 2.
    """


from .coeffs import (GWBASE, GWElement, GW_BETA8, GW_EPS, GW_H, GW_ONE,
                     INTEGERS, RATIONALS)
from .symfun import (Partition, complete_from_elementary,
                     enumerate_box_partitions, schur_in_elementary)
from .grassring import (EpsAlgebra, GrassRing, eps_product, limit_ring,
                        present, restriction)
from .pontryagin import (FormalSymplecticBundle, QPBModule, cartan_sum,
                         char_reduce, p1_of_class, tau_element)
from .classcalc import (BundleSymbol, FormalClass, RelationSet, expand,
                        mu_class, verify_gw_formula, verify_k0_formula)
from .forms import (BilinearForm, FiniteField, diagonalize, karoubi_check,
                    ko1_euclidean, sp_reduce_unimodular, symplectic_basis,
                    unit_square_classes)
from .chainduality import (FreeComplex, SymmetricComplex, contracting_homotopy,
                           koszul, swap_sign_check, tensor_pair)
from .towers import (FGAbelian, Tower, check_mittag_leffler, lim_of_surjective,
                     milnor_assemble)
from .geomverify import (quadratic_section_identity, solve_invariant_forms,
                         verify_M_path, verify_M1_factorization,
                         verify_symplectic_lift)

__version__ = "0.1.0"

"""hyperforge: certified desk-scale constructions of hypercyclic algebras for
weighted backward shifts on concrete sequence algebras."""

from .bundle import Bundle, Cert, CauchyRound, CoordRound
from .cauchy import (
    BlockSolveResult,
    CauchyState,
    LambdaMatrix,
    build_algebrable_cauchy,
    build_generator_cauchy,
    enumerate_multi_indices,
    leading_form_column,
    multi_index_count,
    multinomial,
    solve_building_block,
    tail_bound,
)
from .coordwise import CoordState, build_algebrable, build_generator, select_ar
from .core import (
    FiniteSeq,
    WeightSpec,
    WideComplex,
    backward_iterate,
    cauchy_power,
    cauchy_product,
    coordinatewise_power,
    coordinatewise_product,
    root_power_block,
)
from .criteria import (
    MixingCertificate,
    PkWitness,
    PropertyAWitness,
    PropertyBWitness,
    check_mixing,
    extend_pk_witness,
    find_pk_witness,
    property_a_witness,
    property_b_witness,
)
from .element import AlgebraElement
from .errors import HyperforgeError
from .parser import ElementExpr, parse_element
from .schedule import PairOrder, TargetSchedule, TripleOrder
from .spaces import SpaceSpec, seminorm_eval, space
from .verify import (
    OrbitReport,
    expansion_oracle,
    nonfinite_generation_witness,
    orbit_element_report,
    orbit_power_report,
    revalidate_bundle,
    zero_product_report,
)

__version__ = "0.1.0"

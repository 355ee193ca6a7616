"""Exact invariants of hypersurface singularities in positive characteristic.

Sparse polynomials over Q or F_p, weighted Rees algebras with differential
saturation and the tau invariant, elimination-style presentations with slopes
and H-orders, monoidal transformation towers with exceptional-divisor
bookkeeping, and the attached monomial algebra with its combinatorial
resolution game.
"""

from .errors import (BudgetError, CharpresError, CommandError,
                     DegenerateSlopeError, DominationError,
                     NonMonomialElimError, NotMonicError,
                     NotNormalFormError, PermissibilityError, PolyParseError,
                     SceneParseError, TrackingError)
from .poly import (INF, ClosedPoint, FieldSpec, GenericPoint, MPoly,
                   order_at, parse_poly, render_poly)
from .rees import (ReesAlg, diff_saturate, ord_at, sing_member,
                   singular_coordinate_strata, tau_at, tau_translation_oracle)
from .projection import (PPresentation, SimplifiedPresentation, hord,
                         hord_data, make_p_presentation,
                         membership_criterion, normalize, slope_poly,
                         upstairs_algebra)
from .blowup import (Center, Chart, Tower, blow_up_poly, stage_ab_experiment,
                     transform_object, transform_presentation)
from .monomial import (MonomialAlg, is_strong_monomial, lift_resolution,
                       resolve_game, sandwich_report, track_monomial)
from .scene import (Scene, canonical_json, load_scene, parse_scene, run_scene,
                    verify_trace)

__version__ = "0.1.0"

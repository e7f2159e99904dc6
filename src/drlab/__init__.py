"""drlab: a numerical laboratory for the two-parameter recursion

    u_{n+1} = u_n psi(v_{n+1}),    v_{n+1} = u_n + v_n,

the generalized Derrida-Retaux dynamics.  The package builds critical
curves by a right-to-left march, exposes the two exactly solvable
model families (linear-fractional and continuous linear-fractional),
validates their closed-form evolution by pool Monte Carlo, and measures
the free-energy asymptotics exp(-C/sqrt(eps)) near the critical curve.
"""

from .drivers import (ModelConstants, PsiFunction, ZSpecContinuous,
                      ZSpecDiscrete, driver_from_spec, dual_psi,
                      make_affine_psi, make_clf_psi, make_custom_psi,
                      make_fig1_clamped_psi, make_fig1_psi, make_lf_psi)
from .errors import ConfigError, DomainError, DrlabError, NumericError
from .recursion import (FreeEnergyEstimate, OrbitState, PhaseLabel,
                        StoppingRecord, backward_orbit, classify,
                        classify_detail, compare_orbits, free_energy,
                        orbit, step, stopping_times)
from .curve import (CriticalCurve, CurveGrid, bisect_h, curve_from_h,
                    dual_curve, h_eval, iterate_g, pick_K, residual,
                    solve_curve, solve_g1)
from .models import (CLFParams, LFParams, Model, clf_step, clf_to_uv,
                     critical_tail_lf, gamma_star, law_stats, lf_step,
                     lf_to_uv, make_clf_model, make_lf_model,
                     model_free_energy, model_step, model_to_uv, rho_star)
from .montecarlo import (SamplePool, compare_to_model, mc_step,
                         pool_from_clf, pool_from_lf, run_validation,
                         sample_clf, sample_geometric, sample_lf)
from .lab import (ScalingReport, Seed, c_star_estimate, c_v_estimate,
                  critical_asymptotics, euler_tan_check, make_seed,
                  n_star_scaling, sandwich_check, simplified_comparison)

__version__ = "0.1.0"

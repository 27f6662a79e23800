"""Named experiments: validated configs dispatched to the library modules.

Every experiment has a JSON-schema-validated config (unknown fields are
rejected) whose properties carry, as JSON Schema `default`s, the parameters
of the calibrated runs documented in the README, and a runner returning
result rows plus named pass/fail checks.  The same machinery backs the
ad-hoc subcommands (build, correlate, rigidity, ledrapier, cesaro, gauss,
poisson): an entry's `command` names its subcommand, whose flags are
generated from the params schema.  `resolve_config` is the one place a
config is completed and checked: the schema, read and worded by the stdlib
reader in `constructions`, then the rules no schema states (non-empty level
ranges within the refinement cap, a spec or else a rule the construction
flags name).  Runners build from its result without checking it again.

A config chooses what is computed, never what counts as a pass: every check
threshold is a constant below, and a check that covered nothing (no stage,
time or pair in its range) fails.
"""
from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Optional

from .constructions import (
    BUILTIN_RULES,
    DESCRIPTOR_DEFS,
    MAX_CUTS,
    MAX_DEPTH,
    _check,
    _pair,
    _rule_params,
    _spec_params,
    json_path,
    schema_error,
)
from .gaussian import (
    GaussianModel,
    gaussian_hermite_correlation,
    gaussian_wh_experiment,
    triple_correlation_weakmix_check,
)
from .ledrapier import (
    base_event,
    event_measure,
    pair_measure,
    symdiff_identity_check,
    triple_measure,
)
from .mc import BATCHES
from .operators import (
    FiniteRankPerturbation,
    conjugate_defect,
    make_rotation_operator,
    uniform_unit_vector,
    vector_with_plane_mass,
)
from .poisson import PoissonModel, poisson_count_covariance, poisson_wh_experiment
from .reports import ExperimentReport, check, exact_row, mc_row
from .tower import (
    MAX_REFINED_LEVELS,
    FinitarySwap,
    LevelSet,
    build_stage,
    correlation_interval,
    depth_for,
    level_set_measure,
    rigidity_scan,
    symdiff_interval,
    wh_defect,
)

__all__ = [
    "ConfigError",
    "command_specs",
    "describe_experiments",
    "resolve_config",
    "run_experiment",
]


class ConfigError(ValueError):
    """Config rejected before dispatch: an unknown field, name or bad value."""


_TOP_LEVEL_KEYS = {"experiment", "seed", "params"}


def _schema(properties: dict) -> dict:
    """A closed params object; its descriptors are the `$defs` it carries."""
    return {
        "type": "object",
        "properties": properties,
        "additionalProperties": False,
        "$defs": DESCRIPTOR_DEFS,
    }


def _object_ref(name: str) -> dict:
    # `type` beside the `$ref` is what makes the CLI read it from a file
    return {"type": "object", "$ref": f"#/$defs/{name}"}


def _construction_props(default: str) -> dict:
    return {
        "construction": {"type": "string", "enum": list(BUILTIN_RULES), "default": default},
        "r": {"type": "integer", "minimum": 2, "maximum": MAX_CUTS},
        "role": {"type": "string", "enum": ["t", "s"]},
        "spec": _object_ref("spec"),
    }


def _construction(params: dict):
    """The construction of resolved params: their `spec`, else their rule."""
    if "spec" in params:
        return _spec_params(params["spec"])
    args = {key: params[key] for key in ("r", "role") if key in params}
    return _rule_params(params["construction"], args)


def _int(default: int, minimum: int = 0, maximum: Optional[int] = None) -> dict:
    prop = {"type": "integer", "minimum": minimum, "default": default}
    return prop if maximum is None else {**prop, "maximum": maximum}


def _stage(default: int) -> dict:
    # every kernel call needs a depth of at least its sets' stage
    return _int(default, maximum=MAX_DEPTH)


_DEPTH = {"type": "integer", "minimum": 0, "maximum": MAX_DEPTH}

# no dim x dim array is formed; the cap bounds wh-gaussian's n_terms x dim
# orbit rows and its latent block of at most dim rows a slice (at most 511
# samples a slice), whatever the batch size
_DIM = {"type": "integer", "minimum": 4, "maximum": 4096, "default": 64}

# Caps on the parameters whose run time grows with their value: at one cap, a
# run takes at most 15 s on 2 CPUs, and about two minutes with a second at its
# cap too (`dim` 4096, or a generated pair at depth 64).
_MAX_SAMPLES = 10**6
_MAX_SCAN = 10**4  # shifts of a rigidity scan
_MAX_COUNT = 1000  # triple-mixing times
_MAX_MC_TERMS = 10**4  # averaging length of a Monte-Carlo statistic
_MAX_EXACT_TERMS = 10**6  # averaging length of an exact or operator defect


def _int_array(default: list, maximum: Optional[int] = None) -> dict:
    items = {"type": "integer", "minimum": 0}
    return {
        "type": "array",
        "items": items if maximum is None else {**items, "maximum": maximum},
        "minItems": 1,
        "default": default,
    }


def _int_pair(default: list) -> dict:
    return {**_int_array(default), "minItems": 2, "maxItems": 2}


def _level_range_props(side: str, stage: int, lo: int, hi: int) -> dict:
    """The levels lo..hi-1 of one stage, as `<side>_stage/_lo/_hi`."""
    return {
        f"{side}_stage": _stage(stage),
        f"{side}_lo": _int(lo),
        f"{side}_hi": _int(hi, minimum=1),
    }


# ---------------------------------------------------------------------------
# runners: each returns (rows, checks, notes)

# Check thresholds.  Both relative defect ratios of the pair stay below
# _RATIO_BOUND at every stage from _CERTIFY_FROM on (at the default cuts
# r_j = 8j + 8, the larger ratio 2/r_j is 1/36 at stage 8).
_RATIO_BOUND, _CERTIFY_FROM = Q(1, 20), 8
_WH_BOUND = Q(1, 10)  # theorem1's finitary-swap Cesaro defect
_FINAL_BOUND = 0.05  # eq1-sweep's majorant2 at its last averaging length
_LOST_SHARE = Q(1, 100)  # of the window intensity, per wh-poisson row
_MIN_USABLE = 10  # triple-mixing's correlation-quiet times


# generic ledrapier shifts z are distinct points of [-REACH, REACH] x [0, HEIGHT]
# other than the origin, so at most _GENERIC_BOX of them exist
_GENERIC_REACH, _GENERIC_HEIGHT = 9, 9
_GENERIC_BOX = (2 * _GENERIC_REACH + 1) * (_GENERIC_HEIGHT + 1) - 1


def _run_ledrapier(params: dict, seed: int, jobs: int):
    mu = event_measure([base_event()])
    rows = [exact_row(item="base", measure=mu)]
    pair_ok, triple_ok, identity_ok = True, True, True
    for k in range(1, params["k_max"] + 1):
        z, w = (2**k, 0), (0, 2**k)
        pz, pw = pair_measure(z), pair_measure(w)
        tr = triple_measure(z, w)
        ident = symdiff_identity_check(k)
        pair_ok = pair_ok and pz == Q(1, 4) and pw == Q(1, 4)
        triple_ok = triple_ok and tr == 0
        identity_ok = identity_ok and ident
        rows.append(
            exact_row(
                item="dyadic",
                k=k,
                pair_z=pz,
                pair_w=pw,
                triple=tr,
                identity=ident,
            )
        )
    rng = random.Random(params["generic_seed"])
    seen: set = set()
    generic_ok = True
    while len(seen) < params["generic_pairs"]:
        z = (
            rng.randint(-_GENERIC_REACH, _GENERIC_REACH),
            rng.randint(0, _GENERIC_HEIGHT),
        )
        if z == (0, 0) or z in seen:
            continue
        seen.add(z)
        p = pair_measure(z)
        generic_ok = generic_ok and p == Q(1, 4)
        rows.append(exact_row(item="generic", z=list(z), pair=p))
    checks = [
        check("base-measure-is-half", mu == Q(1, 2)),
        check("dyadic-pairs-are-quarter", pair_ok),
        check("dyadic-triples-vanish", triple_ok),
        check("dyadic-identities-hold", identity_ok),
        check("generic-pairs-are-quarter", generic_ok and len(seen) > 0),
    ]
    return rows, checks, []


def _run_rigidity(params: dict, seed: int, jobs: int):
    construction = _construction(params)
    a = LevelSet(params["a_stage"], tuple(params["a_levels"]))
    depth = params.get("depth")
    entries = rigidity_scan(
        construction, a, params["n_max"], depth=depth, theta=params["theta"]
    )
    rows = [
        exact_row(
            n=e.n,
            kind=e.kind,
            alpha=e.alpha,
            corr_lo=e.correlation.lo,
            corr_hi=e.correlation.hi,
            symdiff_lo=e.symdiff.lo,
            symdiff_hi=e.symdiff.hi,
        )
        for e in entries
    ]
    rigid_set = [e.n for e in entries if e.kind == "rigid"]
    checks = [
        check("scan-covers-requested-range", len(entries) == params["n_max"]),
        check(
            "rigid-set-matches-expected",
            rigid_set == params["expect_rigid"],
            detail=f"found {rigid_set}",
        ),
    ]
    return rows, checks, []


def _certified_ratio_rows(pair, stages: int):
    """Per-stage exact defect ratios for the interleaved pair at depth j+1;
    certified when both stay below _RATIO_BOUND from stage _CERTIFY_FROM on,
    which the stages must reach."""
    rows, identity_ok, certified_ok = [], True, True
    for j in range(1, stages + 1):
        c = pair.time_at(j)
        r = pair.cuts_at(j)
        rigid, mixing = pair.roles_at(j)
        rigid_params, mixing_params = pair.params(rigid), pair.params(mixing)
        a = LevelSet(j, (0,))
        mu = level_set_measure(rigid_params, a)
        sym = symdiff_interval(rigid_params, c, a, j + 1)
        corr = correlation_interval(mixing_params, c, a, a, j + 1)
        rel_sym, rel_corr = sym.hi / mu, corr.hi / mu
        identity_ok = identity_ok and rel_sym == Q(2, r) and rel_corr == Q(1, r)
        if j >= _CERTIFY_FROM:
            certified_ok = certified_ok and rel_sym < _RATIO_BOUND and rel_corr < _RATIO_BOUND
        rows.append(
            exact_row(
                stage=j,
                time=c,
                cuts=r,
                rigid_side=rigid,
                rel_symdiff_hi=rel_sym,
                rel_corr_hi=rel_corr,
                rel_symdiff_float=float(rel_sym),
                rel_corr_float=float(rel_corr),
            )
        )
    return rows, identity_ok, certified_ok and stages >= _CERTIFY_FROM


def _shared_heights_ok(pair, stages: int) -> bool:
    return all(
        build_stage(pair.t_params, j).height == build_stage(pair.s_params, j).height
        for j in range(stages + 1)
    )


def _run_theorem6(params: dict, seed: int, jobs: int):
    pair = _pair(params.get("pair", {}))
    stages = params["stages"]
    heights_ok = _shared_heights_ok(pair, stages)
    rows, identity_ok, certified_ok = _certified_ratio_rows(pair, stages)
    checks = [
        check("towers-share-all-heights", heights_ok),
        check("certified-ratio-identities", identity_ok),
        check(
            "both-defect-ratios-below-bound-from-certify-stage",
            certified_ok,
            detail=f"bound {_RATIO_BOUND} from stage {_CERTIFY_FROM}",
        ),
    ]
    notes = [
        "Odd-stage times are certified rigid-like for the t construction and "
        "correlation-free for the s construction at the next stage; even "
        "stages swap the roles.",
    ]
    return rows, checks, notes


def _run_theorem1(params: dict, seed: int, jobs: int):
    pair = _pair(params.get("pair", {}))
    heights_ok = _shared_heights_ok(pair, params["ratio_stages"])
    rows, identity_ok, certified_ok = _certified_ratio_rows(pair, params["ratio_stages"])

    n_max, theta = params["scan_n_max"], params["scan_theta"]
    a_scan = LevelSet(1, (0,))
    scans = {role: rigidity_scan(pair.params(role), a_scan, n_max, theta=theta) for role in "ts"}
    overlap_ok, vanish_ok, probed = True, True, 0
    mu = level_set_measure(pair.t_params, a_scan)
    j = 1
    while (c := pair.time_at(j)) <= n_max:
        r = pair.cuts_at(j)
        rigid, mixing = pair.roles_at(j)
        e_rigid, e_mixing = scans[rigid][c - 1], scans[mixing][c - 1]
        overlap_ok = (
            overlap_ok
            and e_rigid.kind == "partially-rigid"
            and e_rigid.correlation.lo / mu == 1 - Q(1, r)
        )
        vanish_ok = (
            vanish_ok
            and e_mixing.kind == "none"
            and e_mixing.correlation.hi == 0
        )
        probed += 1
        for side, entry in (("rigid", e_rigid), ("mixing", e_mixing)):
            rows.append(
                exact_row(
                    scan_side=side,
                    time=c,
                    kind=entry.kind,
                    alpha=entry.alpha,
                    corr_lo=entry.correlation.lo,
                    corr_hi=entry.correlation.hi,
                )
            )
        j += 1

    swap = FinitarySwap(params["swap_stage"], tuple(params["swap_pair"]))
    a = LevelSet(params["a_stage"], range(params["a_lo"], params["a_hi"]))
    wh_ok = True
    for n_terms in params["wh_ns"]:
        iv = wh_defect(pair.t_params, swap, a, n_terms, params["a_stage"])
        wh_ok = wh_ok and iv.hi <= _WH_BOUND
        rows.append(
            exact_row(
                item="wh-defect",
                n_terms=n_terms,
                defect_lo=iv.lo,
                defect_hi=iv.hi,
                defect_float=float(iv.hi),
            )
        )
    checks = [
        check("towers-share-all-heights", heights_ok),
        check("certified-ratio-identities", identity_ok),
        check("both-defect-ratios-below-bound-from-certify-stage", certified_ok),
        check(
            "scan-confirms-overlap-on-the-rigid-side",
            overlap_ok and probed > 0,
            detail=f"{probed} shared time(s) within scan range",
        ),
        check(
            "scan-confirms-vanishing-correlation-on-the-other-side", vanish_ok and probed > 0
        ),
        check(
            "finitary-swap-defect-below-bound",
            wh_ok,
            detail=f"bound {float(_WH_BOUND)}",
        ),
    ]
    notes = [
        "Certified layer: the rank-one base constructions only (shared "
        "heights, stage-certified rigidity and correlation ratios, and the "
        "finitary-swap Cesaro defect). Ergodicity of the suspended actions "
        "is outside what this tool checks.",
    ]
    return rows, checks, notes


def _calibrated_operator(params: dict):
    angles = make_rotation_operator(params["dim"])
    i, j = params["plane"]
    pert = FiniteRankPerturbation(params["dim"], i, j, params["angle"])
    vec = vector_with_plane_mass(
        params["dim"], pert, delta=params["delta"], seed=params["vector_seed"]
    )
    return angles, pert, vec


# Slack of the defect chain.  When the perturbed plane is a rotation block of
# the operator, every U^-i K U^i f is K f and the defect equals majorant1 in
# exact arithmetic; the float defect can then exceed the float majorant1, by
# about 3e-17 at N = 100 on the defaults.
_CHAIN_TOL = 1e-9


def _run_eq1_sweep(params: dict, seed: int, jobs: int):
    angles, pert, vec = _calibrated_operator(params)
    rows, chain_ok = [], True
    final = None
    for n_terms in params["ns"]:
        d = conjugate_defect(angles, pert, vec, n_terms)
        chain_ok = (
            chain_ok
            and d.defect <= d.majorant1 + _CHAIN_TOL
            and d.majorant1 <= d.majorant2 + _CHAIN_TOL
        )
        final = d.majorant2
        rows.append(
            exact_row(
                n_terms=n_terms,
                defect=d.defect,
                majorant1=d.majorant1,
                majorant2=d.majorant2,
            )
        )
    checks = [
        check("defect-chain-holds-at-every-n", chain_ok, detail=f"tolerance {_CHAIN_TOL}"),
        check(
            "final-majorant-below-bound",
            final is not None and final <= _FINAL_BOUND,
            detail=f"majorant2({params['ns'][-1]}) = {final}",
        ),
    ]
    notes = [
        "The observable keeps a fixed fraction of its mass on the perturbed "
        "plane, so the cheap majorant equals twice that fraction at every "
        "averaging length.",
    ]
    return rows, checks, notes


def _run_wh_gaussian(params: dict, seed: int, jobs: int):
    angles, pert, vec = _calibrated_operator(params)
    model = GaussianModel(angles, vec)
    rows, checks = [], []
    for row, k in enumerate(params["degrees"]):
        r = gaussian_wh_experiment(
            model,
            pert,
            k,
            params["n_terms"],
            params["samples"],
            seed=(seed, row),
            jobs=jobs,
        )
        rows.append(
            mc_row(
                r.estimate,
                degree=k,
                exact=r.exact,
                majorant=r.majorant,
                operator_defect=r.operator_defect.defect,
                tracks=r.tracks_exact,
                below=r.below_majorant,
            )
        )
        checks.append(check(f"degree-{k}-tracks-exact-gap", r.tracks_exact))
        checks.append(check(f"degree-{k}-below-majorant", r.below_majorant))
    return rows, checks, []


def _window_model(params: dict) -> PoissonModel:
    """The Poisson model over the window of the pair's t tower."""
    pair = _pair(params.get("pair", {}))
    window = LevelSet(params["window_stage"], range(params["window_size"]))
    return PoissonModel(pair.t_params, window, depth=params["depth"])


def _run_wh_poisson(params: dict, seed: int, jobs: int):
    model = _window_model(params)
    swap = FinitarySwap(params["swap_stage"], tuple(params["swap_pair"]))
    a = LevelSet(params["a_stage"], range(params["a_lo"], params["a_hi"]))
    rows, checks = [], []
    lost_budget = _LOST_SHARE * model.intensity
    for row, n_terms in enumerate(params["ns"]):
        r = poisson_wh_experiment(
            model,
            swap,
            a,
            n_terms,
            params["samples"],
            seed=(seed, row),
            jobs=jobs,
        )
        rows.append(
            mc_row(
                r.estimate,
                n_terms=n_terms,
                wh_lo=r.wh_interval.lo,
                wh_hi=r.wh_interval.hi,
                majorant=r.majorant,
                lost_mass=r.lost_mass,
                below=r.below_majorant,
            )
        )
        checks.append(check(f"n-{n_terms}-below-majorant", r.below_majorant))
        checks.append(
            check(
                f"n-{n_terms}-lost-mass-within-budget",
                r.lost_mass <= lost_budget,
                detail=f"lost {r.lost_mass} of intensity {model.intensity}",
            )
        )
    return rows, checks, []


def _run_triple_mixing(params: dict, seed: int, jobs: int):
    model = GaussianModel(
        make_rotation_operator(params["dim"]), uniform_unit_vector(params["dim"])
    )
    ms = list(range(1, params["count"] + 1))
    entries = triple_correlation_weakmix_check(
        model,
        ms,
        [2 * m for m in ms],
        threshold=params["threshold"],
        samples=params["samples"],
        seed=seed,
        jobs=jobs,
    )
    rows, usable, within_ok, margin = [], 0, True, 0.0
    for e in entries:
        if e.condition_met:
            usable += 1
            within_ok = within_ok and e.within_five_se
            margin = max(margin, abs(e.exact - e.product))
        rows.append(
            mc_row(
                e.estimate,
                m=e.m,
                n=e.n,
                rho_m=e.rho_m,
                rho_n=e.rho_n,
                condition_met=e.condition_met,
                failed_pairs=",".join(e.failed_pairs),
                exact=e.exact,
                product=e.product,
                within=e.within_five_se,
            )
        )
    checks = [
        check(
            "enough-correlation-quiet-times",
            usable >= _MIN_USABLE,
            detail=f"{usable} of {len(entries)} times met the threshold",
        ),
        check(
            "quiet-times-match-orthant-probability-within-five-se",
            within_ok and usable > 0,
            detail=f"quiet rows' orthant probability is within {margin:.2e} of 1/8"
            if usable
            else "no quiet row was compared",
        ),
    ]
    notes = [
        "The pairwise-correlation threshold is a finite-size stand-in for "
        "genuine mixing along the probed times; flagged rows report which "
        "pair failed it.",
    ]
    return rows, checks, notes


def _run_build(params: dict, seed: int, jobs: int):
    construction = _construction(params)
    depth = params["depth"]
    rows, recurrence_ok = [], True
    for j in range(depth + 1):
        stage = build_stage(construction, j)
        rows.append(
            exact_row(
                stage=j,
                height=stage.height,
                level_width=stage.level_width,
                measure=stage.height * stage.level_width,
            )
        )
        if j < depth:
            r, spacers = construction.stage_data(j)
            expected = sum(stage.height + s for s in spacers)
            recurrence_ok = (
                recurrence_ok and build_stage(construction, j + 1).height == expected
            )
    checks = [check("stacking-recurrence-exact", recurrence_ok)]
    return rows, checks, []


def _run_correlate(params: dict, seed: int, jobs: int):
    construction = _construction(params)
    a = LevelSet(params["a_stage"], range(params["a_lo"], params["a_hi"]))
    b = LevelSet(params["b_stage"], range(params["b_lo"], params["b_hi"]))
    n = params["n"]
    depth = params.get("depth")
    if depth is None:
        depth = depth_for(construction, abs(n) + 1)
    iv = correlation_interval(construction, n, a, b, depth)
    width = iv.hi - iv.lo
    budget = abs(n) * build_stage(construction, depth).level_width
    rows = [
        exact_row(
            n=n,
            depth=depth,
            lo=iv.lo,
            hi=iv.hi,
            width=width,
            linear_budget=budget,
        )
    ]
    checks = [check("interval-width-within-linear-budget", width <= budget)]
    return rows, checks, []


def _run_gauss(params: dict, seed: int, jobs: int):
    model = GaussianModel(
        make_rotation_operator(params["dim"]), uniform_unit_vector(params["dim"])
    )
    rows, all_within = [], True
    pairs = [(k, n) for k in params["degrees"] for n in params["shifts"]]
    for row, (k, n) in enumerate(pairs):
        r = gaussian_hermite_correlation(
            model,
            k,
            n,
            params["samples"],
            seed=(seed, row),
            jobs=jobs,
        )
        all_within = all_within and r.within_five_se
        rows.append(
            mc_row(
                r.estimate,
                degree=k,
                shift=n,
                rho=r.rho,
                prediction=r.prediction,
                within=r.within_five_se,
            )
        )
    checks = [check("hermite-correlations-within-five-se", all_within)]
    return rows, checks, []


def _run_poisson_cov(params: dict, seed: int, jobs: int):
    model = _window_model(params)
    a = LevelSet(params["a_stage"], range(params["a_lo"], params["a_hi"]))
    b = LevelSet(params["b_stage"], range(params["b_lo"], params["b_hi"]))
    rows, all_within = [], True
    for row, n in enumerate(params["ns"]):
        r = poisson_count_covariance(
            model,
            n,
            a,
            b,
            params["samples"],
            seed=(seed, row),
            jobs=jobs,
        )
        all_within = all_within and r.within_five_se
        rows.append(
            mc_row(
                r.estimate,
                shift=n,
                exact_lo=r.exact.lo,
                exact_hi=r.exact.hi,
                lost_mass=r.lost_mass,
                within=r.within_five_se,
            )
        )
    checks = [check("covariances-within-five-se-of-exact", all_within)]
    return rows, checks, []


# ---------------------------------------------------------------------------
# catalogue


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    params_schema: dict
    runner: Callable
    listed: bool = True
    command: Optional[str] = None

    @property
    def defaults(self) -> dict:
        """A fresh copy of the `default` of every schema property that has one."""
        return {
            name: copy.deepcopy(prop["default"])
            for name, prop in self.params_schema["properties"].items()
            if "default" in prop
        }


_MC_PROPS = {"samples": _int(100000, minimum=2 * BATCHES, maximum=_MAX_SAMPLES)}

_CALIBRATED_OPERATOR_PROPS = {
    "dim": _DIM,
    "plane": _int_pair([6, 7]),
    "angle": {"type": "number", "default": 0.5},
    "delta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1, "default": 0.02},
    "vector_seed": _int(5),
}

_WINDOW_PROPS = {
    "window_stage": _stage(2),
    "window_size": _int(700, minimum=1, maximum=MAX_REFINED_LEVELS),
    "depth": {**_DEPTH, "default": 2},
}

_SWAP_PROPS = {
    "swap_stage": _stage(1),
    "swap_pair": _int_pair([1, 3]),
}

_SPECS = [
    ExperimentSpec(
        name="ledrapier",
        description="exact cylinder measures for the GF(2) plane shift: "
        "pairwise independence with vanishing dyadic triples",
        params_schema=_schema(
            {
                "k_max": {"type": "integer", "minimum": 1, "maximum": 60, "default": 10},
                "generic_pairs": {
                    "type": "integer", "minimum": 0, "maximum": _GENERIC_BOX, "default": 20,
                },
                "generic_seed": _int(7),
            }
        ),
        runner=_run_ledrapier,
        command="ledrapier",
    ),
    ExperimentSpec(
        name="theorem1",
        description="composite certificate for the rigid/mixing pair: shared "
        "heights, stage ratios, base-level scan, and finitary-swap defect",
        params_schema=_schema(
            {
                "pair": _object_ref("pair"),
                # the last ratio is taken at depth ratio_stages + 1
                "ratio_stages": _int(9, minimum=1, maximum=MAX_DEPTH - 1),
                "scan_n_max": _int(80, minimum=1, maximum=_MAX_SCAN),
                "scan_theta": {"type": "number", "exclusiveMinimum": 0, "default": 0.05},
                "wh_ns": _int_array([50, 100, 200], maximum=_MAX_EXACT_TERMS),
                **_SWAP_PROPS,
                **_level_range_props("a", 2, 50, 350),
            }
        ),
        runner=_run_theorem1,
    ),
    ExperimentSpec(
        name="theorem6",
        description="interleaved pair generator: shared heights and exact "
        "per-stage rigidity/correlation ratios for both constructions",
        params_schema=_schema(
            {
                "pair": _object_ref("pair"),
                "stages": {"type": "integer", "minimum": 1, "maximum": 16, "default": 12},
            }
        ),
        runner=_run_theorem6,
    ),
    ExperimentSpec(
        name="eq1-sweep",
        description="Cesaro conjugation defect against its two certified "
        "majorants for the calibrated rotation-plus-plane setup",
        params_schema=_schema(
            {
                **_CALIBRATED_OPERATOR_PROPS,
                "ns": _int_array([100, 1000, 10000], maximum=_MAX_EXACT_TERMS),
            }
        ),
        runner=_run_eq1_sweep,
        command="cesaro",
    ),
    ExperimentSpec(
        name="wh-gaussian",
        description="Hermite moment gap of the conjugated Gaussian "
        "observable against the operator-level defect majorant",
        params_schema=_schema(
            {
                **_CALIBRATED_OPERATOR_PROPS,
                **_MC_PROPS,
                "degrees": {
                    "type": "array",
                    "items": {"type": "integer", "enum": [1, 2]},
                    "minItems": 1,
                    "default": [1, 2],
                },
                "n_terms": _int(100, minimum=1, maximum=_MAX_MC_TERMS),
            }
        ),
        runner=_run_wh_gaussian,
    ),
    ExperimentSpec(
        name="wh-poisson",
        description="paired count perturbation of the Poisson suspension "
        "under a finitary swap, against the exact tower majorant",
        params_schema=_schema(
            {
                "pair": _object_ref("pair"),
                **_MC_PROPS,
                **_WINDOW_PROPS,
                **_SWAP_PROPS,
                **_level_range_props("a", 2, 50, 350),
                "ns": _int_array([50, 100, 200], maximum=_MAX_MC_TERMS),
            }
        ),
        runner=_run_wh_poisson,
    ),
    ExperimentSpec(
        name="rigidity-scan",
        description="exact rigid/partially-rigid/none classification of "
        "shifts against a level set (odometer lattice by default)",
        params_schema=_schema(
            {
                **_construction_props("odometer"),
                "a_stage": _stage(3),
                "a_levels": _int_array([0]),
                "n_max": _int(64, minimum=1, maximum=_MAX_SCAN),
                "depth": {**_DEPTH, "default": 12},
                "theta": {"type": "number", "exclusiveMinimum": 0, "default": 0.05},
                "expect_rigid": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "default": [8, 16, 24, 32, 40, 48, 56, 64],
                },
            }
        ),
        runner=_run_rigidity,
        command="rigidity",
    ),
    ExperimentSpec(
        name="triple-mixing",
        description="triple correlations along correlation-quiet times of a "
        "Gaussian rotation model against the product value",
        params_schema=_schema(
            {
                **_MC_PROPS,
                "dim": _DIM,
                "count": _int(200, minimum=1, maximum=_MAX_COUNT),
                "threshold": {"type": "number", "exclusiveMinimum": 0, "default": 0.01},
            }
        ),
        runner=_run_triple_mixing,
    ),
    # unlisted ad-hoc commands
    ExperimentSpec(
        name="build",
        description="build tower stages and verify the stacking recurrence",
        params_schema=_schema(
            {**_construction_props("chacon"), "depth": {**_DEPTH, "default": 8}}
        ),
        runner=_run_build,
        listed=False,
        command="build",
    ),
    ExperimentSpec(
        name="correlate",
        description="exact correlation interval for one shift and two sets",
        params_schema=_schema(
            {
                **_construction_props("chacon"),
                "n": {"type": "integer", "default": 1},
                **_level_range_props("a", 2, 0, 5),
                **_level_range_props("b", 2, 0, 5),
                "depth": _DEPTH,
            },
        ),
        runner=_run_correlate,
        listed=False,
        command="correlate",
    ),
    ExperimentSpec(
        name="gauss",
        description="Hermite auto-correlations of the Gaussian model "
        "against the exact degree-k prediction",
        params_schema=_schema(
            {
                **_MC_PROPS,
                "dim": _DIM,
                "degrees": {
                    "type": "array",
                    "items": {"type": "integer", "enum": [1, 2, 3]},
                    "minItems": 1,
                    "default": [1, 2],
                },
                "shifts": _int_array([3, 7, 25]),
            }
        ),
        runner=_run_gauss,
        listed=False,
        command="gauss",
    ),
    ExperimentSpec(
        name="poisson",
        description="Poisson suspension count covariances against the exact "
        "tower intervals",
        params_schema=_schema(
            {
                "pair": _object_ref("pair"),
                **_MC_PROPS,
                **_WINDOW_PROPS,
                **_level_range_props("a", 2, 100, 150),
                **_level_range_props("b", 2, 90, 200),
                "ns": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 1,
                    "default": [0, 3, 17],
                },
            }
        ),
        runner=_run_poisson_cov,
        listed=False,
        command="poisson",
    ),
]

_CATALOGUE = {spec.name: spec for spec in _SPECS}


def describe_experiments() -> list:
    return [(spec.name, spec.description) for spec in _SPECS if spec.listed]


def command_specs() -> list:
    """Catalogue entries that back an ad-hoc CLI subcommand."""
    return [spec for spec in _SPECS if spec.command is not None]


def resolve_config(raw: dict) -> dict:
    """Merge defaults and make every check the runners rely on; raises ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    name = raw.get("experiment")
    if not isinstance(name, str) or name not in _CATALOGUE:
        raise ConfigError(f"unknown experiment {name!r}")
    spec = _CATALOGUE[name]

    params = spec.defaults
    supplied = raw.get("params", {})
    if not isinstance(supplied, dict):
        raise ConfigError("params must be a JSON object")
    params.update(copy.deepcopy(supplied))
    error = schema_error(spec.params_schema, params)
    if error is not None:
        path, message = error
        where = f" at {json_path(path)}" if len(path) > 1 else ""
        raise ConfigError(f"invalid params for {name!r}{where}: {message}")
    for side in ("a", "b"):  # an entry without the side passes both rules
        lo, hi = params.get(f"{side}_lo", 0), params.get(f"{side}_hi", 1)
        if hi <= lo:
            raise ConfigError(
                f"empty level set: {side}_hi={hi} must exceed {side}_lo={lo}"
            )
        if hi - lo > MAX_REFINED_LEVELS:
            raise ConfigError(
                f"level set too wide: {side}_lo={lo} to {side}_hi={hi} holds "
                f"{hi - lo} levels, cap is {MAX_REFINED_LEVELS}"
            )

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    # read on the supplied params: `construction` always has a default
    if "spec" in supplied:
        for key in ("construction", "r", "role"):
            if key in supplied:
                raise ConfigError(
                    f"{key!r} (--{key}) cannot be given beside 'spec' (--spec-file): "
                    "a spec names its whole construction"
                )
    elif "construction" in params:
        args = {key: params[key] for key in ("r", "role") if key in params}
        try:
            _check("rule", {"name": params["construction"], "args": args})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return {"experiment": name, "seed": seed, "params": params}


def run_experiment(raw_config: dict, jobs: int = 1) -> ExperimentReport:
    config = resolve_config(raw_config)
    spec = _CATALOGUE[config["experiment"]]
    started = time.perf_counter()
    rows, checks, notes = spec.runner(config["params"], config["seed"], jobs)
    report = ExperimentReport(
        experiment=config["experiment"],
        config=config,
        rows=rows,
        checks=checks,
        notes=notes,
        wall_clock_seconds=time.perf_counter() - started,
    )
    return report

"""Named property suites binding each verified claim to a seeded run.

Every suite checks one claim about the exponential maps, Witt groups, or
series, over a deterministic grid of cases.  Case randomness is derived
from (seed, suite name, case index) through the SplitMix64 streams in
``rng``, so identical configs reproduce identical reports.  A failing
case's witness is exactly its keyword inputs, so it can be replayed
standalone.  Every suite records verdict arrays, row-major in the order
of its inputs' loops, with ``Recorder.check_lanes``, which asks for the
inputs of the failing cases only (a one-off check is one lane).
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain, groupby, product
from math import factorial, gcd

import numpy as np

from . import linalg
from .expmaps import (
    ah_exp,
    bch,
    bch_dynkin,
    truncated_exp,
    witt_embed,
)
from .gf import _Frozen, check_prime, inverse_mod, scalar_to_json
from .groups import (
    KINDS,
    GroupSpec,
    JordanType,
    _nilpotent_draws,
    enumerate_nilpotents,
    group_element_lanes,
    jordan_nilpotent,
    jordan_nilpotent_lanes,
    nilpotent_lanes,
    nilpotent_order,
    in_group,
    in_lie_algebra,
    p_elements,
    radical_elements,
    unipotent_order_exponent,
)
from .matrices import FpMatrix, _mat_mul_planes, nilpotent_powers
from .rng import stream_lanes, u64_lanes
from .series import _ah_integer_coeffs, ah_coeffs_mod_p, ah_inverse_coeffs, series_mul

INTEGRALITY_DEGREE = 60
NEGATIVE_CONTROL_CAP = 10_000
LANE_BUDGET = 512  # the most lanes one stack of a lane-stacked suite holds (read by _stacks alone)


class SuiteConfig(_Frozen):
    __slots__ = ("suites", "primes", "kinds", "max_dim", "trials", "seed")
    _fields = __slots__

    def __init__(self, suites: tuple[str, ...], primes: tuple[int, ...] = (2, 3, 5, 7),
                 kinds: tuple[str, ...] = KINDS, max_dim: int = 8,
                 trials: int | None = None, seed: int = 0):
        if not suites:
            raise ValueError("no suites requested")
        unknown = [s for s in suites if s != "all" and s not in SUITES]
        if unknown:
            raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
        for p in primes:
            check_prime(p)
        if not primes:
            raise ValueError("at least one prime is required")
        for k in kinds:
            if k not in KINDS:
                raise ValueError(f"unknown group kind {k!r}")
        if not kinds:
            raise ValueError("at least one group kind is required")
        # a repeated entry would run its cases twice and overstate coverage
        for what, values in (("suite", suites), ("prime", primes), ("group kind", kinds)):
            if len(set(values)) != len(values):
                raise ValueError(f"repeated {what} in {','.join(map(str, values))}")
        if max_dim < 2:
            raise ValueError("max dimension must be at least 2")
        if trials is not None and trials < 1:
            raise ValueError("trials must be >= 1")
        if all(k in ("SO", "Sp") for k in kinds) and all(p == 2 for p in primes):
            raise ValueError("SO/Sp with p = 2 violates the good-prime constraint")
        self._freeze(suites, primes, kinds, max_dim, trials, seed)

    def resolved_suites(self) -> tuple[str, ...]:
        if "all" in self.suites:
            return tuple(SUITES)
        return self.suites

    def trials_or(self, default: int) -> int:
        return default if self.trials is None else self.trials

    def to_json(self) -> dict:
        return {
            "suites": list(self.resolved_suites()),
            "primes": list(self.primes),
            "kinds": list(self.kinds),
            "max_dim": self.max_dim,
            "trials": self.trials,
            "seed": self.seed,
        }


def _encode(value):
    """JSON form of one witness input; values already in JSON form pass through."""
    if hasattr(value, "to_json_obj"):  # an FpMatrix or a WittVector
        return value.to_json_obj()
    if isinstance(value, tuple):  # the coordinates of a field element
        return scalar_to_json(value)
    return value


class Recorder:
    """Accumulates case results for one suite."""

    __slots__ = ("name", "anchor", "cases", "passed", "witnesses")

    def __init__(self, name: str, anchor: str):
        self.name, self.anchor, self.cases, self.passed, self.witnesses = name, anchor, 0, 0, []

    def check_lanes(self, ok: np.ndarray, witness) -> None:
        """Count a verdict array of any shape, case k at its row-major index k;
        witness(k) gives the keyword inputs of a failing case k, and is called
        for the failing cases only, in order."""
        self.cases += ok.size
        self.passed += int(ok.sum())
        for k in np.flatnonzero(~ok).tolist():
            self.witnesses.append({name: _encode(v) for name, v in witness(k).items()})

    def to_json(self) -> dict:
        return {"name": self.name, "anchor": self.anchor, "cases": self.cases, "passed": self.passed,
                "witnesses": self.witnesses, "failed": len(self.witnesses)}


class Report:
    __slots__ = ("version", "config", "suites", "generated_at")

    def __init__(self, version: int, config: dict, suites: list[dict], generated_at: str):
        self.version, self.config, self.suites, self.generated_at = version, config, suites, generated_at

    @property
    def failed(self) -> int:
        return sum(record["failed"] for record in self.suites)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _trials(points, trials: int):
    """The lanes (p, spec, stream label, index) of ``trials`` cases at each
    grid point (p, kind, n, stream label), in grid order."""
    for p, kind, n, label in points:
        spec = GroupSpec(kind, n)
        for k in range(trials):
            yield p, spec, label, k


def _stacks(items, weight: int = 1):
    """Consecutive items in stacks of max(1, LANE_BUDGET // weight), an item
    being a case (or a parabolic) of ``weight`` lanes: the one rule by
    which a lane-stacked suite cuts its work."""
    items, size = list(items), max(1, LANE_BUDGET // weight)
    for lo in range(0, len(items), size):
        yield items[lo:lo + size]


def _nilpotents(cfg: SuiteConfig, lanes, e: int = 1, per_case: int = 1):
    """Seeded nilpotents of Lie(G) for lanes (p, spec, stream label, index):
    a lane's case seed is stream(cfg.seed, label, index).u64(), and its
    nilpotent is drawn from that seed by ``groups.nilpotent_lanes``.

    The lanes of one p are yielded in order, in ``_stacks`` of whole cases
    of per_case consecutive lanes, as (p, specs, case seeds, X); X pads each
    lane to diag(X, 0) at the stack's largest n, so a check on the stack
    checks every lane, and ``X.lane(i, specs[i].n)`` is lane i's own matrix.
    """
    for p, group in groupby(lanes, key=lambda lane: lane[0]):
        for stack in _stacks(zip(*[group] * per_case), per_case):
            _, specs, labels, indices = zip(*chain.from_iterable(stack))
            seeds = u64_lanes(stream_lanes(cfg.seed, labels, np.array(indices)))
            yield p, specs, seeds, nilpotent_lanes(specs, p, e, seeds)


# -- individual suites -------------------------------------------------


def suite_ah_integrality(cfg: SuiteConfig, rec: Recorder) -> None:
    d = INTEGRALITY_DEGREE
    for p in cfg.primes:
        # C_i = A_i / i! in lowest terms, witnessed as its Fraction prints
        terms = [(a // gcd(a, f), f // gcd(a, f)) for a, f in zip(*_ah_integer_coeffs(p, d))]
        rec.check_lanes(np.array([den % p != 0 for _, den in terms]), lambda i: dict(
            p=p, i=i, coefficient="{}/{}".format(*terms[i]).removesuffix("/1")))
        mod = ah_coeffs_mod_p(p, d)  # C_i = 1/i! for i < p, through degree d
        rec.check_lanes(np.array([mod[i] * factorial(i) % p == 1 for i in range(min(p, d + 1))]),
                        lambda i: dict(p=p, i=i, c_i=mod[i]))
        prod = series_mul(ah_inverse_coeffs(p, d), mod, p)
        rec.check_lanes(np.array([prod == (1,) + (0,) * d]), lambda _: dict(p=p, product=list(prod)))


@lru_cache(maxsize=None)
def _witt_table(p: int, m: int, add):
    """The elements of W_m(F_p), their indices, and the (N, N) Cayley table
    of add on indices: one add per ordered pair, shared by witt-group and
    witt-hom, and keyed on add so that a replaced witt_add gets its own."""
    from .witt import WittVector

    elements = tuple(WittVector.from_ints(p, m, v) for v in product(range(p), repeat=m))
    index = {w: i for i, w in enumerate(elements)}
    table = np.array([[index[add(u, v)] for v in elements] for u in elements])
    table.flags.writeable = False
    return elements, index, table


def suite_witt_group(cfg: SuiteConfig, rec: Recorder) -> None:
    # each claim is a verdict array over element indices, read through the
    # Cayley table t, in the order of its inputs' loops
    from .witt import WittVector, witt_add, witt_from_integer, witt_neg, witt_order, witt_pow_p

    for p, m in ((2, 2), (2, 3), (3, 2)):
        if p not in cfg.primes:
            continue
        elements, index, t = _witt_table(p, m, witt_add)
        n, ids, zero = len(elements), np.arange(len(elements)), index[WittVector.zero(p, m)]
        neg = [index[witt_neg(w)] for w in elements]
        rec.check_lanes(np.stack([t[:, zero] == ids, t[ids, neg] == zero], axis=1),  # (w, identity | inverse)
                        lambda k: dict(p=p, m=m, w=elements[k // 2]))
        rec.check_lanes(t == t.T, lambda k: dict(p=p, m=m, u=elements[k // n], v=elements[k % n]))
        rec.check_lanes(t[t] == t[:, t], lambda k: dict(  # (u, v, w): (u + v) + w = u + (v + w)
            p=p, m=m, u=elements[k // n ** 2], v=elements[k // n % n], w=elements[k % n]))
        # Z/p^m oracle: bijective and additive
        images = np.array([index[witt_from_integer(p, m, k)] for k in range(n)])
        rec.check_lanes(np.array([len(set(images.tolist())) == n]),
                        lambda _: dict(p=p, m=m, note="witt_from_integer is not injective"))
        rec.check_lanes(t[images[:, None], images] == images[(ids[:, None] + ids) % n],
                        lambda k: dict(p=p, m=m, a=k // n, b=k % n))
        # (w, p-fold sum = shifted Frobenius | order = p^(m - first nonzero entry))
        acc = np.full(n, zero)
        for _ in range(p):
            acc = t[acc, ids]
        orders = [witt_order(w) for w in elements]
        leads = [next((i for i, a in enumerate(w.entries) if any(a)), m) for w in elements]
        ok = np.stack([acc == [index[witt_pow_p(w)] for w in elements],
                       np.equal(orders, [p ** (m - lead) for lead in leads])], axis=1)
        rec.check_lanes(ok, lambda k: dict(p=p, m=m, w=elements[k // 2],
                                           **({"order": orders[k // 2]} if k % 2 else {})))


def suite_witt_hom(cfg: SuiteConfig, rec: Recorder) -> None:
    # E(u) E(v) against E(u + v) for all pairs at once, u + v from the Cayley table
    from .witt import witt_add

    for p, size, m in ((2, 5, 3), (3, 4, 2)):  # J_size over F_p has nilpotent order m
        if p not in cfg.primes:
            continue
        elements, _, table = _witt_table(p, m, witt_add)
        x, n = jordan_nilpotent(JordanType((size,)), p), len(elements)
        embeds = witt_embed(x, elements).planes  # one stacked lane per element
        prods = _mat_mul_planes(embeds[:, None], embeds[None, :], p, x._mod)
        rec.check_lanes((prods == embeds[table]).all(axis=(-3, -2, -1)),
                        lambda k: dict(p=p, n=x.n, m=m, X=x, u=elements[k // n], v=elements[k % n]))
        rec.check_lanes(np.array([len({lane.tobytes() for lane in embeds}) == n]),
                        lambda _: dict(p=p, n=x.n, m=m, note="embedding not injective"))


def _group_grid(cfg: SuiteConfig, suite: str, max_dim: int):
    """Grid points (p, kind, n, stream label) of a classical-group suite."""
    for p in cfg.primes:
        if p > 5:
            continue
        for kind in cfg.kinds:
            if kind in ("SO", "Sp") and p == 2:
                continue
            if kind in ("GL", "SL"):
                dims = range(2, max_dim + 1)
            elif kind == "SO":
                dims = range(3, max_dim + 1)
            else:
                dims = range(2, max_dim + 1, 2)
            for n in dims:
                yield p, kind, n, f"{suite}/{p}/{kind}/{n}"


def suite_frobenius_compat(cfg: SuiteConfig, rec: Recorder) -> None:
    points = _group_grid(cfg, "frobenius-compat", min(8, cfg.max_dim))
    for p, specs, _, x in _nilpotents(cfg, _trials(points, cfg.trials_or(100))):
        ok = ah_exp(x ** p).lanes_equal(ah_exp(x) ** p)
        rec.check_lanes(ok, lambda i: dict(p=p, kind=specs[i].kind, X=x.lane(i, specs[i].n)))


def suite_order_preservation(cfg: SuiteConfig, rec: Recorder) -> None:
    points = _group_grid(cfg, "order-preservation", min(8, cfg.max_dim))
    for p, specs, _, x in _nilpotents(cfg, _trials(points, cfg.trials_or(100))):
        ok = unipotent_order_exponent(ah_exp(x)) == nilpotent_order(x)
        rec.check_lanes(ok, lambda i: dict(p=p, kind=specs[i].kind, X=x.lane(i, specs[i].n)))


def suite_form_preservation(cfg: SuiteConfig, rec: Recorder) -> None:
    points = (
        (p, kind, n, f"form-preservation/{p}/{kind}/{n}")
        for p in cfg.primes if p in (3, 5)
        for kind, n in (("Sp", 4), ("Sp", 6), ("SO", 5), ("SO", 7))
    )
    for p, specs, _, x in _nilpotents(cfg, _trials(points, cfg.trials_or(100))):
        u, ok = ah_exp(x), np.zeros(len(specs), dtype=bool)
        for spec in dict.fromkeys(specs):  # each spec's lanes at once, cut to its n
            idx = [i for i, s in enumerate(specs) if s == spec]
            ok[idx] = in_lie_algebra(spec, x.lane(idx, spec.n)) & in_group(spec, u.lane(idx, spec.n))
        rec.check_lanes(ok, lambda i: dict(p=p, kind=specs[i].kind, n=specs[i].n,
                                           X=x.lane(i, specs[i].n)))
    if 3 in cfg.primes:
        rec.check_lanes(np.array([_find_truncation_counterexample(cfg.seed) is not None]), lambda _: dict(
            p=3, kind="Sp", n=6, note=f"no witness among {NEGATIVE_CONTROL_CAP} candidates"))


def _find_truncation_counterexample(seed: int):
    """Search sp_6(F_3) for X with X^3 != 0 where 1 + X + X^2/2 breaks the
    form but the Artin-Hasse exponential preserves it."""
    spec = GroupSpec("Sp", 6)
    ident = FpMatrix.identity(3, 1, 6)
    half = inverse_mod(2, 3)
    for k in range(NEGATIVE_CONTROL_CAP):
        states = stream_lanes(seed, "form-preservation/negative-control", k)
        x = _nilpotent_draws([spec], 3, 1, states).lane(0)
        if (x @ x @ x).is_zero() or in_group(spec, ident + x + (x @ x).scale(half)):
            continue
        if in_group(spec, ah_exp(x)):
            return x
    return None


def suite_eps_parabolic(cfg: SuiteConfig, rec: Recorder) -> None:
    """Each property runs on stacks, one lane per (parabolic, trial), each
    lane padded to the largest n and its witnesses cropped to its own.  The
    parabolics of one p are cut into ``_stacks`` of parabolics of ``trials``
    lanes, those of each n apart when they do not all fit one stack.  A
    stack's cases are recorded parabolic by parabolic, property by
    property, with the samples of its failing cases as witnesses: those of
    parabolic 0 as each chunk of trials finishes, so a lone parabolic's
    memory does not grow with the trials, and the other parabolics' rows
    after the last property."""
    from .compositions import ParabolicGL, restricted_compositions
    trials = cfg.trials_or(100)
    for p in cfg.primes:
        if p > 5:
            continue
        checks = [(prop, fn) for prop, fn in _EPS_CHECKS.items() if p >= 3 or prop != "dynkin"]
        by_n = [[ParabolicGL(comp, p) for comp in restricted_compositions(n, p)]
                for n in range(2, min(6, cfg.max_dim) + 1)]
        stacks = list(_stacks(chain.from_iterable(by_n), trials))
        if len(stacks) > 1:  # they do not all fit one stack: those of each n apart
            stacks = [stack for block in by_n for stack in _stacks(block, trials)]
        for group in stacks:
            def witness(i, inputs, width):  # parabolic i's case k is lane i * width + k
                return lambda k: dict(p=p, comp=list(group[i].comp.blocks), **{
                    name: v.lane(i * width + k, group[i].n) for name, v in inputs.items()})

            later = [[] for _ in group[1:]]  # parabolic i's (verdicts, witness) per chunk
            for prop, fn in checks:
                for ok, inputs in _eps_chunks(cfg, group, prop, 1 if prop == "tangent" else trials, fn):
                    rows = ok.reshape(len(group), -1)
                    rec.check_lanes(rows[0], witness(0, inputs, rows.shape[1]))
                    for i, row in enumerate(rows[1:], 1):
                        later[i - 1].append((row, witness(i, inputs, rows.shape[1])))
            for row, wit in chain.from_iterable(later):
                rec.check_lanes(row, wit)


def _eps_chunks(cfg: SuiteConfig, pars: list, prop: str, count: int, check):
    """check on the lanes (par, k) for each par and k < count, in ``_stacks``
    of trials; lane (par, k) draws its case seed from
    stream(seed, "eps-parabolic/<p>/<blocks>/<prop>", k)."""
    for ks in map(np.array, _stacks(range(count))):
        names = [name for par in pars
                 for name in [f"eps-parabolic/{par.p}/{','.join(map(str, par.comp.blocks))}/{prop}"] * len(ks)]
        seeds = u64_lanes(stream_lanes(cfg.seed, names, np.tile(ks, len(pars))))
        yield check([par for par in pars for _ in ks], seeds)


# Each check maps lanes (one parabolic per lane) and their case seeds to a
# verdict per lane and the stacked witness inputs.

def _eps_equivariance(lanes, seeds):
    from .parabolic import eps_p
    g, x = p_elements(lanes, seeds), radical_elements(lanes, seeds, 1)
    ginv = linalg.inv(g)
    return eps_p(lanes, g @ x @ ginv).lanes_equal(g @ eps_p(lanes, x) @ ginv), {"g": g, "X": x}


def _eps_bch(lanes, seeds):
    from .parabolic import eps_p
    x, y = radical_elements(lanes, seeds, 0), radical_elements(lanes, seeds, 1)
    return eps_p(lanes, bch(x, y)).lanes_equal(eps_p(lanes, x) @ eps_p(lanes, y)), {"X": x, "Y": y}


def _eps_dynkin(lanes, seeds):
    # the truncated-log/exp route against the Dynkin expansion
    x, y = radical_elements(lanes, seeds, 0), radical_elements(lanes, seeds, 1)
    return bch(x, y).lanes_equal(bch_dynkin(x, y, x.p - 1)), {"X": x, "Y": y}


def _eps_tangent(lanes, seeds):
    # the tangent map is the identity.  s -> eps_P(sX) is a matrix polynomial
    # of degree < p in s, so its constant term is eps_P(0) and its linear
    # coefficient is -sum_{s in F_p} s^(p-2) eps_P(sX), because
    # sum_{s in F_p} s^k is -1 when p - 1 divides k > 0 and 0 otherwise
    # (0^0 = 1, which p = 2 needs); every s on one stack (s, lane)
    from .parabolic import eps_p
    x = radical_elements(lanes, seeds, 0)
    p, s = x.p, np.arange(x.p)
    values = eps_p(lanes, FpMatrix._wrap(p, x.e, x.n, s[:, None, None, None, None] * x.planes % p)).planes
    linear = -np.tensordot([pow(k, p - 2, p) for k in range(p)], values, axes=1) % p
    ok = (values[0] == FpMatrix.identity(p, x.e, x.n).planes).all(axis=(-3, -2, -1))
    return ok & (linear == x.planes).all(axis=(-3, -2, -1)), {"X": x}


def _eps_restriction(lanes, seeds):
    # the Artin-Hasse map restricts to eps_P on the nilradical
    from .parabolic import eps_p
    x = radical_elements(lanes, seeds, 0)
    return ah_exp(x).lanes_equal(eps_p(lanes, x)), {"X": x}


# stream label -> check, in record order; "tangent" has one case per
# parabolic, the others one per trial
_EPS_CHECKS = {"equivariance": _eps_equivariance, "bch": _eps_bch, "dynkin": _eps_dynkin,
               "tangent": _eps_tangent, "restrict": _eps_restriction}


def _commuting_grid(planes, p: int):
    """(N, N) booleans: whether matrices i and j of the stack (N, 1, n, n)
    over F_p commute, from one batched product of every pair."""
    prod = _mat_mul_planes(planes[:, None], planes[None, :], p, None)
    return (prod == prod.swapaxes(0, 1)).all(axis=(2, 3, 4))


def suite_commuting_pairs(cfg: SuiteConfig, rec: Recorder) -> None:
    # exhaustive small cases (p chosen with p not dividing n)
    grids = [(3, 2), (2, 3)]
    for p, n in grids:
        if p not in cfg.primes:
            continue
        xs = FpMatrix._wrap(p, 1, n, np.stack([x.planes for x in enumerate_nilpotents(p, n)]))
        agree = _commuting_grid(xs.planes, p) == _commuting_grid(ah_exp(xs).planes, p)
        rec.check_lanes(agree, lambda k: dict(p=p, n=n, X=xs.lane(k // len(agree)),
                                              Y=xs.lane(k % len(agree))))
    # seeded pairs in gl_4(F_3): case k is the lanes 2k (X) and 2k + 1 (Y)
    points = [(3, "GL", 4, "commuting-pairs/3/4")] if 3 in cfg.primes else []
    for _, specs, _, z in _nilpotents(cfg, _trials(points, 2 * cfg.trials_or(10_000)), per_case=2):
        x, y, u, v = (FpMatrix._wrap(3, 1, 4, m.planes[k::2]) for m in (z, ah_exp(z)) for k in (0, 1))
        ok = (x @ y).lanes_equal(y @ x) == (u @ v).lanes_equal(v @ u)
        rec.check_lanes(ok, lambda i: dict(p=3, n=4, X=x.lane(i), Y=y.lane(i)))


def _centralizers_equal(x: FpMatrix, u: FpMatrix) -> np.ndarray:
    """Whether nilpotent x and unipotent u have one centralizer, per lane.

    By the double-centralizer theorem C(C(A)) = F[A] over any field, that
    is F[x] = F[u]: u - 1 lies in the span of x, x^2, ... and x in that of
    u - 1, (u - 1)^2, ... (both nilpotent, so with no constant term, and a
    lane padded to diag(., 0) keeps its verdict).  One elimination of the
    columns [powers | target] decides both: no pivot in the target column.
    """
    y = u - FpMatrix.identity(u.p, u.e, u.n)
    powers = [nilpotent_powers(a)[1:] for a in (x, y)]
    d = max(map(len, powers))
    system = np.zeros((2, d + 1) + x.planes.shape, dtype=np.int64)
    for side, (power, target) in enumerate(zip(powers, (y, x))):
        system[side, :len(power)], system[side, d] = power, target.planes
    columns = np.moveaxis(system.reshape(system.shape[:-2] + (-1,)), 1, -1)
    return ~linalg._eliminate(columns, x.p, x.e)[1][..., d].any(axis=0)


def suite_centralizer_equality(cfg: SuiteConfig, rec: Recorder) -> None:
    points = (
        (p, "GL", n, f"centralizer/{p}/{n}")
        for p in cfg.primes if p <= 5
        for n in range(2, min(6, cfg.max_dim) + 1)
    )
    for p, specs, _, xs in _nilpotents(cfg, _trials(points, cfg.trials_or(50))):
        ok = _centralizers_equal(xs, ah_exp(xs))
        rec.check_lanes(ok, lambda i: dict(p=p, n=specs[i].n, X=xs.lane(i, specs[i].n)))


def suite_frobenius_descent(cfg: SuiteConfig, rec: Recorder) -> None:
    trials = cfg.trials_or(50)
    for p in cfg.primes:
        if p not in (2, 3):
            continue
        specs = [GroupSpec("GL", n) for n in range(2, min(6, cfg.max_dim) + 1)]
        lanes = ((p, specs[k % len(specs)], f"frobenius-descent/{p}", k) for k in range(trials))
        for _, lane_specs, _, x in _nilpotents(cfg, lanes, e=2):
            ok = ah_exp(x.frobenius_entries()).lanes_equal(ah_exp(x).frobenius_entries())
            rec.check_lanes(ok, lambda i: dict(p=p, n=lane_specs[i].n, X=x.lane(i, lane_specs[i].n)))


def _p_nilpotent_type(n: int, p: int) -> JordanType:
    # largest parts <= p, so X^p = 0
    parts = [p] * (n // p)
    if n % p:
        parts.append(n % p)
    return JordanType(tuple(sorted(parts, reverse=True)))


def suite_one_parameter(cfg: SuiteConfig, rec: Recorder) -> None:
    """Case k draws X from the seed stream(seed, "one-parameter/<p>/<e>", k).u64().
    The cases run in ``_stacks`` of cases of p^(2e) products e_p(sX) e_p(tX)
    each: e_p is evaluated once on every lane (case, s) and the products in
    one batch."""
    for p in cfg.primes:
        if p > 5:
            continue
        for e in (1, 2):
            if e == 2 and p == 5:
                continue  # F_25 grid is large and adds nothing new
            n = min(6, cfg.max_dim)
            spec, jtype = GroupSpec("GL", n), _p_nilpotent_type(n, p)
            label = f"one-parameter/{p}/{e}"
            trials = cfg.trials_or(50 if e == 1 else 10)
            scalars = list(product(range(p), repeat=e))
            sums = [[scalars.index(tuple((a + b) % p for a, b in zip(s, t))) for t in scalars]
                    for s in scalars]
            unit = scalars.index((1,) + (0,) * (e - 1))  # e_p(1 X) = e_p(X)
            # a case's verdicts: e_p(X) = exp(X), then each product (s, t)
            inputs = [{}] + [{"s": s, "t": t} for s, t in product(scalars, repeat=2)]
            for ks in _stacks(range(trials), len(scalars) ** 2):
                seeds = u64_lanes(stream_lanes(cfg.seed, label, np.array(ks)))
                x = jordan_nilpotent_lanes(spec, jtype, p, e, seeds)
                sx = FpMatrix._wrap(p, e, n, np.stack([x.scale(s).planes for s in scalars], axis=1))
                exps = ah_exp(sx).planes
                agree = (truncated_exp(x).planes == exps[:, unit]).all(axis=(-3, -2, -1))
                prods = _mat_mul_planes(exps[:, :, None], exps[:, None], p, x._mod)
                group = (prods == exps[:, sums]).all(axis=(-3, -2, -1))
                ok = np.concatenate([agree[:, None], group.reshape(len(agree), -1)], axis=1)
                rec.check_lanes(ok, lambda k: dict(p=p, e=e, X=x.lane(k // len(inputs)),
                                                   **inputs[k % len(inputs)]))


def suite_equivariance(cfg: SuiteConfig, rec: Recorder) -> None:
    points = _group_grid(cfg, "equivariance", min(6, cfg.max_dim))
    for p, specs, seeds, x in _nilpotents(cfg, _trials(points, cfg.trials_or(50))):
        # lane i's conjugator is drawn from stream(seeds[i], "conjugator")
        g = group_element_lanes(specs, p, 1, stream_lanes(seeds, "conjugator"))
        ginv = linalg.inv(g)
        ok = ah_exp(g @ x @ ginv).lanes_equal(g @ ah_exp(x) @ ginv)
        rec.check_lanes(ok, lambda i: dict(p=p, kind=specs[i].kind, g=g.lane(i, specs[i].n),
                                           X=x.lane(i, specs[i].n)))


SUITES: dict[str, tuple[str, object]] = {
    "ah-integrality": (
        "E_p(t) = exp(sum_j t^(p^j)/p^j) has p-integral coefficients with "
        "C_i = 1/i! for i < p, and its companion inverse satisfies F_p E_p = 1",
        suite_ah_integrality,
    ),
    "witt-group": (
        "length-m Witt vectors form an abelian group under the ghost-recursion "
        "sum polynomials; n -> n*(1,0,...,0) is an isomorphism Z/p^m -> W_m(F_p); "
        "p-fold addition is the shift (a_0,...,a_{m-1})^p = (0,a_0^p,...,a_{m-2}^p)",
        suite_witt_group,
    ),
    "witt-hom": (
        "for X with X^(p^m) = 0 != X^(p^(m-1)), the map (a_0,...,a_{m-1}) -> "
        "e_p(a_0 X) e_p(a_1 X^p) ... e_p(a_{m-1} X^(p^(m-1))) is an injective "
        "group homomorphism from W_m into GL_n",
        suite_witt_hom,
    ),
    "frobenius-compat": (
        "e_p has coefficients in F_p, so e_p(X)^p = e_p(X^p) for nilpotent X",
        suite_frobenius_compat,
    ),
    "form-preservation": (
        "nilpotent X in Lie(G) implies e_p(X) in G for G = SO_n, Sp_n with p odd; "
        "the bare degree-(p-1) truncation fails this once X^p != 0",
        suite_form_preservation,
    ),
    "order-preservation": (
        "X has nilpotent order p^m exactly when e_p(X) has unipotent order p^m",
        suite_order_preservation,
    ),
    "eps-parabolic": (
        "on a restricted parabolic of GL_n the block exponential u_P -> U_P is "
        "P-equivariant, turns Baker-Campbell-Hausdorff addition into "
        "multiplication, has identity tangent map, and agrees with e_p on u_P",
        suite_eps_parabolic,
    ),
    "commuting-pairs": (
        "[X,Y] = 0 if and only if e_p(X) and e_p(Y) commute",
        suite_commuting_pairs,
    ),
    "centralizer-equality": (
        "X and e_p(X) have identical matrix centralizers",
        suite_centralizer_equality,
    ),
    "frobenius-descent": (
        "e_p is defined over F_p: entrywise p-th power commutes with it on "
        "matrices over F_{p^2}",
        suite_frobenius_descent,
    ),
    "one-parameter": (
        "for X with X^p = 0, s -> e_p(sX) is an additive one-parameter subgroup "
        "and e_p agrees with the degree-(p-1) exponential",
        suite_one_parameter,
    ),
    "equivariance": (
        "e_p(g X g^-1) = g e_p(X) g^-1 for sampled group elements g",
        suite_equivariance,
    ),
}


def run_suite(cfg: SuiteConfig) -> Report:
    """Run the configured suites and assemble the report."""
    records = []
    for name in cfg.resolved_suites():
        anchor, fn = SUITES[name]
        rec = Recorder(name, anchor)
        fn(cfg, rec)
        records.append(rec.to_json())
    return Report(version=1, config=cfg.to_json(), suites=records,
                  generated_at=datetime.now(timezone.utc).isoformat())

"""Suite runner tests: config validation, record schema, determinism."""

import ast
import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ahspringer import groups, suites, witt
from ahspringer.expmaps import ah_exp
from ahspringer.groups import GroupSpec, centralizer_space, nilpotent_lanes
from ahspringer.matrices import FpMatrix
from ahspringer.suites import SUITES, Recorder, SuiteConfig, run_suite


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(suites=())
    with pytest.raises(ValueError):
        SuiteConfig(suites=("no-such-suite",))
    with pytest.raises(ValueError):
        SuiteConfig(suites=("witt-group",), primes=(4,))
    with pytest.raises(ValueError):
        SuiteConfig(suites=("witt-group",), primes=())
    with pytest.raises(ValueError):
        SuiteConfig(suites=("witt-group",), trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(suites=("witt-group",), kinds=("XX",))
    # no kind at all is refused as such, not as a good-prime violation
    for primes in ((2,), (3,)):
        with pytest.raises(ValueError, match="at least one group kind is required"):
            SuiteConfig(suites=("frobenius-compat",), kinds=(), primes=primes)
    # a repeated suite, prime or kind would run its cases twice
    with pytest.raises(ValueError, match="repeated suite"):
        SuiteConfig(suites=("witt-hom", "witt-hom"))
    with pytest.raises(ValueError, match="repeated prime"):
        SuiteConfig(suites=("witt-group",), primes=(2, 3, 2))
    with pytest.raises(ValueError, match="repeated group kind"):
        SuiteConfig(suites=("frobenius-compat",), kinds=("GL", "GL"))
    # SO/Sp pinned together with p = 2 only: no good-prime combination exists
    with pytest.raises(ValueError):
        SuiteConfig(suites=("frobenius-compat",), kinds=("Sp",), primes=(2,))
    # but SO/Sp alongside an odd prime is fine
    SuiteConfig(suites=("frobenius-compat",), kinds=("Sp",), primes=(2, 3))


def test_config_value_contract():
    # what the frozen dataclass gave: equality and hash by the fields, no
    # assignment, a field-by-field repr, and the messages of its validation
    cfg = SuiteConfig(suites=("witt-group",), primes=(2, 3), seed=7)
    fields = (("witt-group",), (2, 3), ("GL", "SL", "SO", "Sp"), 8, None, 7)
    assert cfg == SuiteConfig(("witt-group",), (2, 3), seed=7) and hash(cfg) == hash(fields)
    assert {cfg: 1}[SuiteConfig(*fields)] == 1
    assert cfg != SuiteConfig(suites=("witt-group",), primes=(2, 3), seed=8) and cfg != fields
    for name in ("suites", "primes", "kinds", "max_dim", "trials", "seed", "other"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, 0)
    assert repr(cfg) == ("SuiteConfig(suites=('witt-group',), primes=(2, 3), kinds=('GL', 'SL', 'SO', 'Sp'), "
                         "max_dim=8, trials=None, seed=7)")
    assert cfg.kinds is groups.KINDS  # the one list of group kinds
    for kwargs, message in (
        (dict(suites=()), "no suites requested"),
        (dict(suites=("bad", "witt-hom", "worse")), "unknown suite(s): bad, worse"),
        (dict(suites=("all",), primes=(4,)), "p must be prime, got 4"),
        (dict(suites=("all",), primes=(1 << 16,)), "p must be below 65536 for exact int64 arithmetic, got 65536"),
        (dict(suites=("all",), primes=()), "at least one prime is required"),
        (dict(suites=("all",), kinds=("GL", "XX")), "unknown group kind 'XX'"),
        (dict(suites=("all",), kinds=()), "at least one group kind is required"),
        (dict(suites=("witt-hom", "witt-hom")), "repeated suite in witt-hom,witt-hom"),
        (dict(suites=("all",), primes=(2, 3, 2)), "repeated prime in 2,3,2"),
        (dict(suites=("all",), kinds=("GL", "GL")), "repeated group kind in GL,GL"),
        (dict(suites=("all",), max_dim=1), "max dimension must be at least 2"),
        (dict(suites=("all",), trials=0), "trials must be >= 1"),
        (dict(suites=("all",), kinds=("SO", "Sp"), primes=(2,)),
         "SO/Sp with p = 2 violates the good-prime constraint"),
    ):
        with pytest.raises(ValueError) as err:
            SuiteConfig(**kwargs)
        assert str(err.value) == message


def test_all_resolves_to_registry_order():
    cfg = SuiteConfig(suites=("all",))
    assert cfg.resolved_suites() == tuple(SUITES)


def test_every_suite_has_nonempty_anchor():
    for name, (anchor, fn) in SUITES.items():
        assert anchor.strip()
        assert callable(fn)


def test_recorder_counts_and_witnesses():
    rec = Recorder("demo", "anchor")
    rec.check_lanes(np.array([True]), lambda k: pytest.fail("a passing case has no witness"))
    rec.check_lanes(np.array([False]), lambda k: dict(input=7))
    record = rec.to_json()
    assert record["cases"] == 2
    assert record["passed"] == 1
    assert record["failed"] == 1
    assert record["witnesses"] == [{"input": 7}]
    assert record["passed"] + record["failed"] == record["cases"]


def test_check_lanes_counts_row_major_and_witnesses_only_failures():
    rec = Recorder("demo", "anchor")
    ok = np.array([[True, False, True], [False, True, True]])
    asked = []

    def witness(k):
        asked.append(k)
        assert not ok.flat[k], k  # never asked for a passing case
        return {"k": k, "row": k // 3}

    rec.check_lanes(ok, witness)
    record = rec.to_json()
    assert (record["cases"], record["passed"], record["failed"]) == (6, 4, 2)
    assert asked == [1, 3]
    assert record["witnesses"] == [{"k": 1, "row": 0}, {"k": 3, "row": 1}]


def test_check_lanes_on_no_verdicts_adds_no_case():
    rec = Recorder("demo", "anchor")
    rec.check_lanes(np.zeros((0, 4), dtype=bool), lambda k: pytest.fail("no case to witness"))
    assert (rec.cases, rec.passed, rec.witnesses) == (0, 0, [])


def test_run_suite_record_schema_and_report():
    cfg = SuiteConfig(suites=("witt-group", "witt-hom"), primes=(2,), seed=7)
    report = run_suite(cfg)
    assert report.version == 1
    assert report.config["primes"] == [2]
    assert [r["name"] for r in report.suites] == ["witt-group", "witt-hom"]
    for record in report.suites:
        assert set(record) == {"name", "anchor", "cases", "passed", "failed", "witnesses"}
        assert record["passed"] + record["failed"] == record["cases"]
        assert record["failed"] == 0 and record["witnesses"] == []


def test_run_suite_deterministic_modulo_timestamp():
    cfg = SuiteConfig(
        suites=("frobenius-compat", "centralizer-equality"),
        primes=(2, 3),
        kinds=("GL",),
        max_dim=4,
        trials=5,
        seed=42,
    )
    r1 = json.loads(run_suite(cfg).dumps())
    r2 = json.loads(run_suite(cfg).dumps())
    r1.pop("generated_at")
    r2.pop("generated_at")
    assert r1 == r2


def test_trials_override_shrinks_case_counts():
    small = SuiteConfig(suites=("equivariance",), primes=(3,), kinds=("GL",), max_dim=3, trials=2)
    big = SuiteConfig(suites=("equivariance",), primes=(3,), kinds=("GL",), max_dim=3, trials=4)
    n_small = run_suite(small).suites[0]["cases"]
    n_big = run_suite(big).suites[0]["cases"]
    assert n_big == 2 * n_small


def test_witnesses_serialize_complete_inputs(monkeypatch):
    # force a failure by corrupting one check through a tiny fake suite
    from ahspringer import suites as suites_mod

    def fake_suite(cfg, rec):
        from ahspringer.groups import JordanType, jordan_nilpotent
        from ahspringer.witt import WittVector

        x = jordan_nilpotent(JordanType((3,)), 2)
        w = WittVector.from_ints(3, 2, (1, 2))
        rec.check_lanes(np.array([True, False]),
                        lambda k: dict(X=x, w=w, s=(1, 2), t=(2,), note="as given"))

    monkeypatch.setitem(suites_mod.SUITES, "fake", ("fake anchor", fake_suite))
    report = run_suite(SuiteConfig(suites=("fake",)))
    record = report.suites[0]
    assert record["failed"] == 1
    witness = record["witnesses"][0]
    assert witness["X"]["entries"] == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert report.failed == 1
    assert witness["X"] == {"p": 2, "e": 1, "n": 3, "entries": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}
    assert witness["w"] == {"p": 3, "e": 1, "m": 2, "entries": [1, 2]}
    assert witness["s"] == [1, 2]  # a field element as its entry encoding
    assert witness["t"] == 2
    assert witness["note"] == "as given"
    json.dumps(report.to_json())



# The lane-stacked suites and the stack source most of them share.
STACKED = ("suite_frobenius_compat", "suite_order_preservation", "suite_commuting_pairs",
           "suite_equivariance", "suite_one_parameter", "suite_eps_parabolic",
           "suite_frobenius_descent", "suite_centralizer_equality", "_nilpotents")
PER_OBJECT_SAMPLERS = {"random_nilpotent", "random_group_element", "random_invertible",
                       "random_matrix", "_case_seed"}


LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def suite_functions():
    tree = ast.parse(Path(suites.__file__).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def dotted(node):
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def calls(node, names):
    return [dotted(call.func) for call in ast.walk(node)
            if isinstance(call, ast.Call) and dotted(call.func) in names]


# calls that eliminate: once per stack, never once per case
ELIMINATIONS = ("linalg.inv", "linalg.det_planes", "linalg._eliminate", "centralizer_space",
                "inv", "det_planes", "_eliminate")


def test_stacked_suites_call_no_per_object_sampler():
    # they draw whole stacks, and invert, take determinants or eliminate once
    # per stack: never inside a loop other than the one over the stacks of
    # _nilpotents
    funcs = suite_functions()
    for name in STACKED:
        fn = funcs[name]
        used = {dotted(node).split(".")[-1] for node in ast.walk(fn)
                if isinstance(node, (ast.Name, ast.Attribute))}
        assert not used & PER_OBJECT_SAMPLERS, name
        for loop in (node for node in ast.walk(fn) if isinstance(node, LOOPS)):
            if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call) \
                    and dotted(loop.iter.func) == "_nilpotents":
                continue
            assert calls(loop, ELIMINATIONS) == [], (name, loop.lineno)


def test_eps_parabolic_work_is_pinned(monkeypatch):
    # a count, not a clock: one verify-structure-sized eps-parabolic run
    # eliminates once per Levi round with a block larger than 3 x 3 and once
    # per inverse, and no lane's stream is drawn from the same state twice
    from ahspringer import groups, linalg, rng
    from ahspringer.cli import main

    eliminated, starts = [], []

    def eliminate(planes, p, e):
        eliminated.append(np.shape(planes))
        return _eliminate(planes, p, e)

    def below_lanes(states, n, counts=1):
        drawn = np.broadcast_to(np.asarray(counts), states.shape) > 0
        starts.extend(int(s) for s in states[drawn])
        return _below_lanes(states, n, counts)

    _eliminate, _below_lanes = linalg._eliminate, rng.below_lanes
    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    monkeypatch.setattr(groups, "below_lanes", below_lanes)
    assert main(["verify", "--suite", "eps-parabolic", "--p", "2,3,5", "--trials", "2", "--seed", "42"]) == 0
    assert len(eliminated) == 15
    assert min(shape[-2] for shape in eliminated) >= 4  # 1 x 1 to 3 x 3 blocks in closed form
    assert len(starts) == len(set(starts)) > 0


def test_only_stacks_reads_the_lane_budget_and_no_file_is_opened():
    # one stack rule: every read of LANE_BUDGET lies in _stacks; and the
    # suites build a report, the CLI writes it: no os, io or open here
    tree = ast.parse(Path(suites.__file__).read_text())
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id == "LANE_BUDGET" and isinstance(node.ctx, ast.Load)]
    in_stacks = {node for top in tree.body if getattr(top, "name", None) == "_stacks"
                 for node in ast.walk(top)}
    assert reads and all(node in in_stacks for node in reads)
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"os", "io", "pathlib", "shutil", "tempfile"}
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in ("open", "os")
                or isinstance(node, ast.Attribute) and node.attr == "open"]
    assert "report_path" not in SuiteConfig.__slots__


@pytest.mark.parametrize("weight", [1, 2, 3, 16, 511, 512, 513, 10_000])
def test_stacks_cut_consecutive_items_by_weight(monkeypatch, weight):
    items = list(range(1000))
    stacks = list(suites._stacks(iter(items), weight))
    assert [item for stack in stacks for item in stack] == items
    size = max(1, suites.LANE_BUDGET // weight)
    assert [len(stack) for stack in stacks] == [min(size, 1000 - lo) for lo in range(0, 1000, size)]
    monkeypatch.setattr(suites, "LANE_BUDGET", 3)
    assert [len(stack) for stack in suites._stacks(items[:7], weight)] == ([3, 3, 1] if weight == 1 else [1] * 7)
    assert list(suites._stacks([], weight)) == []


def test_every_suite_records_through_check_lanes_alone():
    # one recording path: a suite counts its cases as verdict arrays, and
    # the Recorder has no per-case method to call instead
    assert not hasattr(Recorder, "check")
    registered = {fn.__name__ for _, fn in SUITES.values()}
    funcs = suite_functions()
    assert registered <= set(funcs)
    used = {dotted(call.func) for name in registered for call in ast.walk(funcs[name])
            if isinstance(call, ast.Call) and dotted(call.func).startswith("rec.")}
    assert used == {"rec.check_lanes"}


# The witt suites look their sums and embeddings up in tables built once;
# a table holds whatever the function returned, so a wrong value still fails.

def encoded(w):
    return {"p": w.p, "e": w.e, "m": w.m, "entries": w.to_json()}


def test_witt_group_fails_on_a_sum_wrong_at_one_pair(monkeypatch):
    from ahspringer.witt import WittVector, witt_add

    u, v = WittVector.from_ints(2, 3, (1, 0, 1)), WittVector.from_ints(2, 3, (1, 1, 0))
    wrong = WittVector.from_ints(2, 3, (0, 0, 1))
    assert witt_add(u, v) != wrong

    def add(a, b):  # wrong on (u, v) and (v, u) only, so still commutative
        return wrong if {a, b} == {u, v} else witt_add(a, b)

    monkeypatch.setattr(witt, "witt_add", add)
    record = run_suite(SuiteConfig(suites=("witt-group",), primes=(2,))).suites[0]
    assert record["failed"] > 0
    assert any(w.get("u") == encoded(u) and w.get("v") == encoded(v) for w in record["witnesses"])
    assert not any("v" in w and "w" not in w for w in record["witnesses"])  # commutativity holds


def test_witt_hom_fails_on_an_embedding_wrong_at_one_element(monkeypatch):
    from ahspringer.expmaps import witt_embed
    from ahspringer.witt import WittVector

    target = WittVector.from_ints(3, 2, (2, 1))

    def embed(x, ws):  # e(w)^2, which is e(2w), on target's lane only
        stack = witt_embed(x, ws)
        planes = stack.planes.copy()
        i = list(ws).index(target)
        planes[i] = (stack.lane(i) @ stack.lane(i)).planes
        return FpMatrix._wrap(stack.p, stack.e, stack.n, planes)

    monkeypatch.setattr(suites, "witt_embed", embed)
    record = run_suite(SuiteConfig(suites=("witt-hom",), primes=(3,))).suites[0]
    assert record["failed"] > 0
    assert any(encoded(target) in (w.get("u"), w.get("v")) for w in record["witnesses"])


FIELDS_SUITES = ("ah-integrality", "witt-group", "witt-hom", "one-parameter",
                 "frobenius-descent", "form-preservation")


def test_witt_suites_share_one_cayley_table(monkeypatch):
    # a count, not a clock: one witt_add per ordered pair of each W_m(F_p)
    # witt-group reaches, which witt-hom reads again, and one stacked
    # embedding per witt-hom grid point
    counts = {"add": 0, "embed": 0}
    add, embed = witt.witt_add, suites.witt_embed

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(witt, "witt_add", counted("add", add))
    monkeypatch.setattr(suites, "witt_embed", counted("embed", embed))
    report = run_suite(SuiteConfig(suites=FIELDS_SUITES, trials=10, seed=42))
    assert report.failed == 0
    # 161 = sum of p^(2m) over (p, m) = (2, 2), (2, 3), (3, 2)
    assert counts == {"add": 161, "embed": 2}


# eps-parabolic stacks several parabolics, then records each one's slice of
# the verdicts: a property broken on one parabolic only must fail there, with
# the witnesses a parabolic run alone (budget 1) gives.
@pytest.mark.parametrize("budget", [7, 512])
def test_eps_parabolic_records_each_parabolic_its_own_verdicts(monkeypatch, budget):
    target, restrict = (2, 1), suites._EPS_CHECKS["restrict"]

    def broken(lanes, seeds):
        ok, inputs = restrict(lanes, seeds)
        return ok & np.array([par.comp.blocks != target for par in lanes]), inputs

    monkeypatch.setitem(suites._EPS_CHECKS, "restrict", broken)
    cfg = SuiteConfig(suites=("eps-parabolic",), primes=(3,), max_dim=4, trials=2, seed=42)
    records = {}
    for lanes in (1, budget):
        monkeypatch.setattr(suites, "LANE_BUDGET", lanes)
        records[lanes] = run_suite(cfg).suites[0]
    assert records[budget] == records[1]
    assert records[1]["failed"] == 2
    assert all(w["p"] == 3 and w["comp"] == list(target) for w in records[1]["witnesses"])


# centralizer-equality decides C(X) = C(u) on whole stacks, by polynomial
# membership; the reference is the basis check that suite used before: bases
# of C(X) and C(u) from two n^2 x n^2 eliminations, of one dimension, each
# commuting with the other matrix.

def same_centralizer(x, u):
    cx, cu = centralizer_space(x), centralizer_space(u)
    zs = FpMatrix._wrap(x.p, x.e, x.n, np.concatenate([cx, cu]))
    ms = FpMatrix._wrap(x.p, x.e, x.n, np.concatenate([np.broadcast_to(u.planes, cx.shape),
                                                       np.broadcast_to(x.planes, cu.shape)]))
    return len(cx) == len(cu) and bool((zs @ ms).lanes_equal(ms @ zs).all())


def test_centralizer_verdict_is_the_basis_check_on_mixed_stacks():
    # one stack per (p, e) of nilpotents of gl_2 .. gl_6, padded to 6 x 6;
    # the reference sees each lane cropped to its own n
    negatives = 0
    for p, e in product((2, 3, 5), (1, 2)):
        specs = [GroupSpec("GL", n) for _ in range(6) for n in range(2, 7)]
        x = nilpotent_lanes(specs, p, e, range(len(specs)))
        y = nilpotent_lanes(specs, p, e, range(1000, 1000 + len(specs)))  # independent of x
        ident, x2 = FpMatrix.identity(p, e, x.n), x @ x
        # (X^2, e_p(X)) fails only the membership u - 1 in F[X^2], the others
        # at least the membership X in F[u - 1]
        pairs = {"e_p(X)": (x, ah_exp(x)), "1 + Y": (x, ident + y), "1 + X^2": (x, ident + x2),
                 "e_p(X^2)": (x, ah_exp(x2)), "X^2, e_p(X)": (x2, ah_exp(x))}
        for name, (a, u) in pairs.items():
            got = suites._centralizers_equal(a, u)
            want = [same_centralizer(a.lane(i, s.n), u.lane(i, s.n)) for i, s in enumerate(specs)]
            assert got.tolist() == want, (p, e, name)
            if name == "e_p(X)":
                assert all(want), (p, e)  # the suite's claim
            negatives += want.count(False)
    assert negatives >= 300


def test_centralizer_equality_fails_where_the_basis_check_does(monkeypatch):
    # with X -> 1 + X^2 in place of e_p, C(X) = C(u) only for X = 0
    cfg = SuiteConfig(suites=("centralizer-equality",), primes=(2, 3, 5), trials=5, seed=42)
    monkeypatch.setattr(suites, "ah_exp", lambda x: FpMatrix.identity(x.p, x.e, x.n) + x @ x)
    failing = run_suite(cfg).suites[0]["witnesses"]
    check_lanes = Recorder.check_lanes  # then every case, as a witness
    monkeypatch.setattr(Recorder, "check_lanes", lambda self, ok, witness: check_lanes(
        self, np.zeros(ok.shape, dtype=bool), witness))
    cases = run_suite(cfg).suites[0]["witnesses"]
    want = []
    for case in cases:
        x = FpMatrix.from_json_obj(case["X"])
        if not same_centralizer(x, FpMatrix.identity(x.p, x.e, x.n) + x @ x):
            want.append(case)
    assert failing == want
    assert 0 < len(failing) < len(cases) == 75


def test_ah_integrality_runs_at_primes_above_its_degree():
    # for p > INTEGRALITY_DEGREE + 1 the claim C_i = 1/i! (i < p) is
    # checked on the coefficients the suite computes, i <= 60
    record = run_suite(SuiteConfig(suites=("ah-integrality",), primes=(67,))).suites[0]
    degree = suites.INTEGRALITY_DEGREE
    assert (record["cases"], record["failed"]) == (2 * (degree + 1) + 1, 0)

import numpy as np
import pytest

from fmetric import (
    AlteringDistance,
    DomainError,
    FGenerator,
    UnknownFunctionError,
    check_F1,
    check_F2,
    check_altering,
    lookup_function,
    registered_altering,
    registered_generators,
)

# bounded near 0, so it fails (F2): the negative control of the gates
ID_GEN = FGenerator("id", lambda t: +t)


def test_lookup_registered_names():
    assert lookup_function("ln", "generator").name == "ln"
    assert lookup_function("neg_inv", "generator").name == "neg_inv"
    assert lookup_function("id", "altering").name == "id"
    assert lookup_function("square", "altering").name == "square"
    assert lookup_function("sqrt", "altering").name == "sqrt"


def test_lookup_unknown_lists_registered():
    with pytest.raises(UnknownFunctionError) as e:
        lookup_function("cube", "altering")
    msg = str(e.value)
    assert "cube" in msg and "square" in msg and "sqrt" in msg
    with pytest.raises(UnknownFunctionError):
        lookup_function("exp", "generator")
    # id fails (F2), so it is no registered generator
    with pytest.raises(UnknownFunctionError, match=r"registered: \['ln', 'neg_inv'\]"):
        lookup_function("id", "generator")


def test_unknown_function_error_reads_as_its_message():
    # KeyError's str is the repr of its argument, which quoted the message
    with pytest.raises(KeyError) as e:
        lookup_function("cube", "altering")
    assert str(e.value) == "no altering named 'cube'; registered: ['id', 'sqrt', 'square']"


def test_lookup_bad_kind():
    with pytest.raises(ValueError):
        lookup_function("ln", "distance")


def test_registries_expose_all():
    assert {g.name for g in registered_generators()} == {"ln", "neg_inv"}
    assert {a.name for a in registered_altering()} == {"id", "square", "sqrt"}


def test_generator_domain_is_strictly_positive():
    ln = lookup_function("ln", "generator")
    with pytest.raises(DomainError):
        ln.eval(0.0)
    with pytest.raises(DomainError):
        ln.eval(-1.0)
    with pytest.raises(DomainError):
        ln.eval(np.array([1.0, 0.0]))
    assert ln.eval(1.0) == 0.0


def test_altering_domain_allows_zero():
    sq = lookup_function("square", "altering")
    assert sq.eval(0.0) == 0.0
    with pytest.raises(DomainError):
        sq.eval(-0.25)


def test_eval_scalar_and_array():
    ninv = lookup_function("neg_inv", "generator")
    assert ninv.eval(2.0) == -0.5
    out = ninv.eval(np.array([1.0, 2.0, 4.0]))
    assert np.array_equal(out, np.array([-1.0, -0.5, -0.25]))
    assert isinstance(ninv(2.0), float)


def test_generators_monotone_on_seeded_pairs():
    rng = np.random.default_rng(11)
    for f in (lookup_function("ln", "generator"), lookup_function("neg_inv", "generator")):
        for _ in range(200):
            a, b = sorted(rng.uniform(1e-6, 1e6, size=2))
            if a == b:
                continue
            assert f.eval(a) <= f.eval(b)


def test_F1_accepts_registered_generators():
    for f in registered_generators():
        rep = check_F1(f)
        assert rep.passed, rep.note
        assert rep.checked > 0


def test_registered_functions_pass_their_gates():
    # so an inadmissible generator or altering distance cannot be registered
    for f in registered_generators():
        assert check_F1(f).passed and check_F2(f).passed, f.name
    for phi in registered_altering():
        assert check_altering(phi).passed, phi.name


def test_F1_accepts_flat_steps():
    # non-decreasing allows equal neighbours; only a strict drop fails
    steps = FGenerator(name="floor_log", fn=lambda t: np.floor(np.log(t)))
    assert check_F1(steps).passed


def test_F1_rejects_decreasing():
    dec = FGenerator(name="flip", fn=lambda t: -np.asarray(t, dtype=float))
    rep = check_F1(dec)
    assert not rep.passed
    assert rep.failures


def test_F2_accepts_ln_and_neg_inv_rejects_id():
    assert check_F2(lookup_function("ln", "generator")).passed
    assert check_F2(lookup_function("neg_inv", "generator")).passed
    assert check_F1(ID_GEN).passed
    rep = check_F2(ID_GEN)
    assert not rep.passed
    assert rep.failures == [{"level": 1, "reason": f"no t >= {2.0 ** -200:g} with f(t) <= -1"}]


def test_F2_rejects_divergence_without_smallness():
    # diverges to -inf along a subsequence without small arguments ever
    # being forced small: f(t) = ln(t) shifted by a huge bump on (0, 1)
    bumpy = FGenerator(name="bumpy", fn=lambda t: np.where(np.asarray(t) < 1.0, 5.0, np.log(np.asarray(t, dtype=float))))
    rep = check_F2(bumpy)
    assert not rep.passed
    assert rep.failures == [{"level": 1, "reason": f"no t >= {2.0 ** -200:g} with f(t) <= -1"}]


def _per_level_F2(f):
    """(thresholds, failures) of the sampled F2 gate, one level at a time."""
    grid = 2.0 ** -np.arange(0, 201)
    vals = f.eval(grid)
    thresholds, failures = [], []
    for M in range(1, 31):
        hit = np.flatnonzero(vals <= -M)
        if hit.size == 0:
            failures.append({"level": M, "reason": f"no t >= {2.0 ** -200:g} with f(t) <= {-M}"})
            break
        thresholds.append(grid[hit[0]])
    return thresholds, failures


@pytest.mark.parametrize("f", [
    ID_GEN,  # fails at level 1
    FGenerator("ln_100", lambda t: 0.01 * np.log(t)),  # reaches -1.386 at 2^-200: fails at level 2
    FGenerator("ln", np.log),  # never fails
    FGenerator("nan", lambda t: np.full_like(t, np.nan)),
], ids=lambda f: f.name)
def test_F2_matches_the_per_level_search(f):
    thresholds, failures = _per_level_F2(f)
    rep = check_F2(f)
    assert rep.failures == failures
    assert all(type(x["level"]) is int for x in rep.failures)
    assert rep.passed == (not failures)
    shown = ", ".join(f"{t:.3g}" for t in thresholds[:4]) + ("..." if len(thresholds) > 4 else "")
    assert rep.note == "thresholds " + shown


def test_check_altering_accepts_registered():
    for name in ("id", "square", "sqrt"):
        rep = check_altering(lookup_function(name, "altering"))
        assert rep.passed, (name, rep.failures)


def test_check_altering_rejects_offset():
    offset = AlteringDistance(name="offset", fn=lambda t: 1.0 + np.asarray(t, dtype=float))
    rep = check_altering(offset)
    assert not rep.passed


def test_check_altering_rejects_discontinuous_step():
    # the continuity probe compares phi at each grid point against a point
    # h = hi/n^2 past it, so only jumps inside one of those windows are
    # catchable; park the jump just past a grid point to land in a window
    loc = float(np.linspace(0.0, 10.0, 1000)[100]) + 5e-6
    step = AlteringDistance(
        name="step",
        fn=lambda t: np.where(np.asarray(t) > loc, np.asarray(t) + 5.0, np.asarray(t, dtype=float)),
    )
    rep = check_altering(step)
    assert not rep.passed
    assert "step" in rep.failures[0]["reason"]


def test_check_altering_probe_misses_jump_between_windows():
    # a jump clear of every probe window passes: the gate is a sampled
    # check, not a proof of continuity
    step = AlteringDistance(
        name="midstep",
        fn=lambda t: np.where(np.asarray(t) > 1.0, np.asarray(t) + 5.0, np.asarray(t, dtype=float)),
    )
    assert check_altering(step).passed


@pytest.mark.parametrize("fn, reason", [
    (lambda t: 1.0 + np.asarray(t, dtype=float), "phi(0) = 1.0, expected 0"),
    (lambda t: np.maximum(np.asarray(t, dtype=float) - 1.0, 0.0), "phi(t) = 0.0 not positive"),
    (lambda t: np.where(np.asarray(t) > 5.0, 1.0, np.asarray(t, dtype=float)), "decreasing"),
    # zero past 5 is neither positive nor non-decreasing; positivity is reported
    (lambda t: np.where(np.asarray(t) > 5.0, 0.0, np.asarray(t, dtype=float)), "phi(t) = 0.0 not positive"),
], ids=["offset", "flat-start", "drop-at-5", "zero-past-5"])
def test_check_altering_reasons_print_python_floats(fn, reason):
    # numpy 2 printed phi(0) = np.float64(1.0)
    rep = check_altering(AlteringDistance(name="probe", fn=fn))
    assert not rep.passed
    assert [f["reason"] for f in rep.failures] == [reason]

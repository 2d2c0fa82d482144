"""The browser path's fast helpers equal the code they stand in for.

* The entropy gate: :func:`repro.core.entropy.softmax_entropy` is bit
  for bit ``normalized_entropy(softmax(logits, axis=1), axis=1)``, the
  reference, on float32 and float64 logits of 1–64 rows and 2–1000
  classes, including rows with NaN, ±inf, ±0 and probabilities that
  underflow to exactly 0.  The comparison is on the raw bytes, so a
  NaN's sign bit counts too.
* The frozen records: :class:`SampleCost` and
  :class:`RecognitionOutcome` built by the serving loop's positional
  builder are the same objects as keyword-built ones under ``==``,
  ``hash``, ``repr``, ``astuple``, ``asdict``, ``replace`` and pickling,
  and stay frozen.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.core.entropy import normalized_entropy, softmax_entropy
from repro.nn.functional import softmax
from repro.runtime import LCRSDeployment, SessionConfig, four_g
from repro.runtime.latency import SampleCost, _record_builder, _sample_cost
from repro.runtime.session import RecognitionOutcome, _outcome

SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e30, -1e30)


def _reference(logits: np.ndarray) -> np.ndarray:
    return normalized_entropy(softmax(logits, axis=1), axis=1)


def _assert_same_bits(logits: np.ndarray) -> None:
    with np.errstate(all="ignore"):
        want = _reference(logits)
        got = softmax_entropy(logits)
        cached = softmax_entropy(logits, np.log(logits.shape[1]))
    for out in (got, cached):
        assert out.dtype == want.dtype
        assert out.shape == want.shape
        assert out.tobytes() == want.tobytes()


@st.composite
def logit_batches(draw) -> np.ndarray:
    """A logit batch from a seeded normal draw at a drawn scale, with a
    few entries replaced by special values.

    Scales up to 1e4 make most of a row's probabilities underflow to 0;
    the specials put NaN, ±inf and signed zeros anywhere in the batch.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows = draw(st.integers(1, 64))
    classes = draw(st.one_of(st.integers(2, 16), st.integers(2, 1000)))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 10.0, 100.0, 1e4]))
    logits = (np.random.default_rng(seed).standard_normal((rows, classes)) * scale)
    logits = logits.astype(dtype)
    injections = draw(
        st.lists(
            st.tuples(st.integers(0, rows * classes - 1), st.sampled_from(SPECIALS)),
            max_size=4,
        )
    )
    for flat, value in injections:
        logits.flat[flat] = value
    return logits


@given(logits=logit_batches())
# A NaN row next to a finite one.
@example(logits=np.array([[np.nan, 1.0, 2.0], [0.5, -0.5, 3.0]], dtype=np.float32))
@example(logits=np.array([[1.0, np.nan, 2.0]], dtype=np.float64))
# All-equal rows: uniform probabilities, entropy 1.
@example(logits=np.full((2, 10), 3.25, dtype=np.float32))
@example(logits=np.zeros((1, 1000), dtype=np.float64))
# Underflow: exp(-1000) is 0 in both precisions, the 0·log 0 → 0 path.
@example(logits=np.array([[0.0, -1000.0, -2000.0, 1.0]], dtype=np.float32))
@example(logits=np.array([[0.0, -1000.0, -1e4]], dtype=np.float64))
# Infinities: an inf - inf NaN row, an all -inf row, signed zeros.
@example(
    logits=np.array(
        [[np.inf, 0.0, 1.0], [-np.inf, -np.inf, -np.inf], [-np.inf, 0.0, -0.0]],
        dtype=np.float32,
    )
)
def test_softmax_entropy_is_the_reference_bit_for_bit(logits):
    _assert_same_bits(logits)


def test_gate_refuses_fewer_than_two_classes():
    with pytest.raises(ValueError, match="two classes"):
        softmax_entropy(np.zeros((3, 1), dtype=np.float32))


def test_browser_gate_keeps_log_classes_per_class_count(trained_system):
    """The client's cached log|C| follows the class count of the logits."""
    browser = LCRSDeployment(trained_system, four_g(0)).browser
    rng = np.random.default_rng(3)
    for classes in (10, 3, 10):
        logits = rng.standard_normal((5, classes)).astype(np.float32)
        assert browser._entropies(logits).tobytes() == _reference(logits).tobytes()
        assert browser._log_classes == (classes, np.log(classes))


# ----------------------------------------------------------------------
# Frozen records
# ----------------------------------------------------------------------
floats = st.floats(allow_nan=False, width=64)
sample_costs = st.tuples(
    floats, floats, floats, st.sampled_from([None, True, False]), floats, floats,
    st.integers(1, 8),
)
outcomes = st.tuples(
    st.integers(0, 2**40), st.integers(0, 999), st.booleans(), floats,
    sample_costs, st.sampled_from(["binary-branch", "edge", "binary-fallback"]),
    st.integers(0, 5),
)


def _assert_same_record(fast, slow) -> None:
    assert type(fast) is type(slow)
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert repr(fast) == repr(slow)
    assert dataclasses.astuple(fast) == dataclasses.astuple(slow)
    assert dataclasses.asdict(fast) == dataclasses.asdict(slow)
    assert list(vars(fast)) == [f.name for f in dataclasses.fields(slow)]
    assert pickle.loads(pickle.dumps(fast)) == slow
    first = dataclasses.fields(slow)[0].name
    assert dataclasses.replace(fast) == slow
    assert dataclasses.replace(fast, **{first: getattr(slow, first)}) == slow
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(fast, first, getattr(slow, first))


def _keyword_cost(values) -> SampleCost:
    return SampleCost(**dict(zip([f.name for f in dataclasses.fields(SampleCost)], values)))


@given(values=sample_costs)
def test_fast_sample_cost_is_the_keyword_record(values):
    _assert_same_record(_sample_cost(*values), _keyword_cost(values))


@given(values=outcomes)
def test_fast_outcome_is_the_keyword_record(values):
    index, prediction, exited, entropy, cost, served_by, attempts = values
    slow = RecognitionOutcome(
        index=index, prediction=prediction, exited_locally=exited, entropy=entropy,
        cost=_keyword_cost(cost), served_by=served_by, attempts=attempts,
    )
    fast = _outcome(
        index, prediction, exited, entropy, _sample_cost(*cost), served_by, attempts
    )
    _assert_same_record(fast, slow)


def test_session_records_are_fast_built_and_equal(trained_system, tiny_mnist):
    """Every record a session returns has the dataclass's field layout."""
    deployment = LCRSDeployment(trained_system, four_g(2))
    result = deployment.run_session(
        tiny_mnist[1].images[:6], config=SessionConfig(batch_size=4)
    )
    for o in result.outcomes:
        _assert_same_record(o, dataclasses.replace(o))
        _assert_same_record(o.cost, dataclasses.replace(o.cost))


def test_builder_refuses_a_field_named_like_its_locals():
    @dataclasses.dataclass(frozen=True)
    class Clash:
        _cls: int

    with pytest.raises(TypeError, match="builder"):
        _record_builder(Clash)

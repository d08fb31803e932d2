import json
import warnings

import numpy as np
import pytest

import hmpident as hi
from hmpident.errors import (EntryOutOfRangeError, LengthError, MissingKeyError,
                             NegativeEntryError, NonFiniteError, SumNotOneError)
from conftest import fair_coin_params


def test_uniform_validates():
    dist = hi.StringDistribution(2, np.full(4, 0.25))
    hi.validate(dist)


def test_negative_entry_rejected():
    dist = hi.StringDistribution(2, np.array([-0.01, 0.25, 0.35, 0.41]))
    with pytest.raises(NegativeEntryError):
        hi.validate(dist)


def test_sum_not_one_rejected():
    dist = hi.StringDistribution(3, np.full(8, 0.1))
    with pytest.raises(SumNotOneError):
        hi.validate(dist)


def test_entry_above_one_rejected():
    dist = hi.StringDistribution(2, np.array([1.1, 0.0, 0.0, 0.0]))
    with pytest.raises(EntryOutOfRangeError):
        hi.validate(dist)


def test_range_checked_before_sum():
    # both invariants violated; the entry-range one is reported first
    dist = hi.StringDistribution(2, np.array([-0.01, 0.25, 0.25, 0.25]))
    with pytest.raises(NegativeEntryError):
        hi.validate(dist)


def test_missing_and_extra_keys():
    with pytest.raises(MissingKeyError):
        hi.StringDistribution.from_dict(2, {"00": 0.5, "01": 0.5})
    with pytest.raises(MissingKeyError):
        hi.StringDistribution.from_dict(
            1, {"0": 0.5, "1": 0.5, "00": 0.0})
    with pytest.raises(MissingKeyError):
        hi.StringDistribution(2, np.full(3, 0.25))


def test_text_entries_are_a_typed_error():
    with pytest.raises(NonFiniteError, match="real numbers"):
        hi.StringDistribution(2, ["a", "b", "c", "d"])


def test_ragged_table_is_a_typed_error():
    with pytest.raises(MissingKeyError, match="ragged"):
        hi.StringDistribution(1, [[0.5], [0.5, 0.0]])


def test_complex_table_is_a_typed_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no ComplexWarning on the way to the error
        with pytest.raises(NonFiniteError, match="real numbers"):
            hi.StringDistribution(1, [0.5 + 1j, 0.5])


def test_tiny_negative_noise_clamped_on_ingestion():
    dist = hi.StringDistribution(1, np.array([-1e-13, 1.0]))
    assert dist.table[0] == 0.0
    hi.validate(dist)
    # below the clamp floor the entry survives and validation rejects it
    dist = hi.StringDistribution(1, np.array([-1e-10, 1.0]))
    assert dist.table[0] == -1e-10
    with pytest.raises(NegativeEntryError):
        hi.validate(dist)


def test_marginalize_uniform():
    dist = hi.StringDistribution(3, np.full(8, 0.125))
    assert np.array_equal(hi.marginalize(dist, 2), np.full(4, 0.25))


def test_marginalize_total_mass():
    dist = hi.StringDistribution(3, np.full(8, 0.125))
    marg = hi.marginalize(dist, 0)
    assert marg.shape == (1,)
    assert abs(marg[0] - 1.0) <= 1e-9


def test_marginalize_biased_oracle():
    # table deliberately not normalized; marginalization is defined regardless
    probs = {"000": 0.4, "001": 0.1}
    table = np.array([probs.get(format(i, "03b"), 0.1) for i in range(8)])
    dist = hi.StringDistribution(3, table)
    oracle = sum(table[int("00" + w, 2)] for w in "01")
    assert oracle == 0.5
    assert hi.marginalize(dist, 2)[0] == pytest.approx(0.5, abs=1e-15)
    assert hi.prefix_probability(dist, "00") == pytest.approx(0.5, abs=1e-15)


def test_marginalize_is_identity_at_n():
    table = np.array([0.1, 0.2, 0.3, 0.4])
    dist = hi.StringDistribution(2, table)
    assert np.array_equal(hi.marginalize(dist, 2), table)


def test_marginalize_telescopes():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        table = rng.uniform(size=2 ** n)
        dist = hi.StringDistribution(n, table / table.sum())
        m2 = int(rng.integers(1, n + 1))
        m1 = int(rng.integers(0, m2 + 1))
        direct = hi.marginalize(dist, m1)
        two_step = hi.marginalize(dist, m2).reshape(2 ** m1, -1).sum(axis=1)
        assert np.max(np.abs(direct - two_step)) <= 1e-12


def test_marginalize_length_errors():
    dist = hi.StringDistribution(2, np.full(4, 0.25))
    with pytest.raises(LengthError):
        hi.marginalize(dist, 3)
    with pytest.raises(LengthError):
        hi.marginalize(dist, -1)


def test_stationary_uniform():
    assert hi.is_stationary(hi.StringDistribution(3, np.full(8, 0.125)))


def test_stationary_iid():
    dist = hi.full_distribution(fair_coin_params(), 3)
    assert hi.is_stationary(dist)


def test_stationary_balanced_start():
    # pi equal to the stationary vector of M balances the two marginals
    m = np.array([[0.9, 0.1], [0.2, 0.8]])
    params = hi.HmpParams(2, m, np.array([[0.1, 0.9], [0.9, 0.1]]),
                          np.array([2.0 / 3.0, 1.0 / 3.0]))
    assert hi.is_stationary(hi.full_distribution(params, 3))


def test_nonstationary_start_detected():
    m = np.array([[0.9, 0.1], [0.2, 0.8]])
    params = hi.HmpParams(2, m, np.array([[0.1, 0.9], [0.9, 0.1]]),
                          np.array([1.0, 0.0]))
    dist = hi.full_distribution(params, 3)
    # oracle: evaluate the balance condition directly on the table
    imbalance = 0.0
    for i in range(4):
        v = format(i, "02b")
        drop_last = sum(dist.prob(v + a) for a in "01")
        drop_first = sum(dist.prob(a + v) for a in "01")
        imbalance = max(imbalance, abs(drop_last - drop_first))
    assert imbalance > 1e-3
    assert not hi.is_stationary(dist)


def test_stationary_needs_two_symbols():
    with pytest.raises(LengthError):
        hi.is_stationary(hi.StringDistribution(1, np.array([0.5, 0.5])))


def test_prob_accessor_checks():
    dist = hi.StringDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    assert dist.prob("10") == 0.3
    with pytest.raises(LengthError):
        dist.prob("1")
    with pytest.raises(hi.errors.AlphabetError):
        dist.prob("12")
    with pytest.raises(LengthError):
        hi.prefix_probability(dist, "000")


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    table = rng.uniform(size=8)
    table /= table.sum()
    dist = hi.StringDistribution(3, table)
    path = tmp_path / "dist.json"
    hi.save_distribution(dist, path)
    payload = json.loads(path.read_text())
    # the table itself, entries in base-2 index order
    assert set(payload) == {"n", "table"} and payload["n"] == 3
    assert payload["table"] == dist.table.tolist()
    back = hi.load_distribution(path)
    assert back.table.tobytes() == dist.table.tobytes()


def test_negative_zero_survives_a_file(tmp_path):
    dist = hi.StringDistribution(2, np.array([-0.0, 0.5, 0.0, 0.5]))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    hi.save_distribution(dist, first)
    back = hi.load_distribution(first)
    assert np.signbit(back.table).tolist() == [True, False, False, False]
    hi.save_distribution(back, second)
    assert second.read_bytes() == first.read_bytes()


def test_load_reads_the_older_dict_form(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"n": 2, "probabilities": '
                    '{"11": 0.4, "01": 0.20000000000000001, "00": 0.1, "10": 0.3}}')
    assert hi.load_distribution(path).table.tobytes() == np.array([0.1, 0.2, 0.3, 0.4]).tobytes()


def test_load_accepts_integer_entries(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text('{"n": 1, "table": [0, 1]}')
    assert np.array_equal(hi.load_distribution(path).table, [0.0, 1.0])


@pytest.mark.parametrize("text, error", [
    pytest.param('{"n": 2, "table": [0.5, 0.5]}', MissingKeyError, id="short"),
    pytest.param('{"n": 2, "table": [0.25, 0.25, 0.25, 0.25, 0.0]}', MissingKeyError, id="long"),
    # a declared length far beyond the entry count fails before any allocation
    pytest.param('{"n": 1000000000000, "table": [0.25, 0.25, 0.25, 0.25]}', MissingKeyError,
                 id="huge-n"),
    pytest.param('{"n": true, "table": [0.5, 0.5]}', LengthError, id="bool-n"),
    pytest.param('{"n": 2.0, "table": [0.25, 0.25, 0.25, 0.25]}', LengthError, id="float-n"),
    pytest.param('{"n": 1, "table": {"0": 0.5, "1": 0.5}}', MissingKeyError, id="dict-table"),
    pytest.param('{"n": 1, "table": "0.5 0.5"}', MissingKeyError, id="text-table"),
    pytest.param('{"n": 1, "table": [true, 0.5]}', NonFiniteError, id="bool-entry"),
    pytest.param('{"n": 1, "table": [0.5, "0.5"]}', NonFiniteError, id="text-entry"),
    pytest.param('{"n": 1, "table": [0.5, null]}', NonFiniteError, id="null-entry"),
    pytest.param('{"n": 1, "table": [[0.5], 0.5]}', NonFiniteError, id="list-entry"),
    pytest.param('{"n": 1, "table": [0.5, 1' + "0" * 400 + ']}', NonFiniteError,
                 id="integer-beyond-a-double"),
    pytest.param('{"table": [0.5, 0.5]}', MissingKeyError, id="no-n"),
])
def test_load_rejects_malformed_tables(tmp_path, text, error):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(error):
        hi.load_distribution(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2}')
    with pytest.raises(MissingKeyError):
        hi.load_distribution(path)


def test_a_read_only_float_table_is_kept_as_given(tmp_path):
    table = np.full(8, 0.125)
    table.setflags(write=False)
    assert hi.StringDistribution(3, table).table is table
    # the package's own table producers hand over read-only arrays
    dist = hi.full_distribution(hi.random_stochastic(3, 1), 9)
    assert not dist.table.flags.writeable and dist.table.dtype == np.float64
    hi.save_distribution(dist, tmp_path / "d.json")
    loaded = hi.load_distribution(tmp_path / "d.json").table
    assert not loaded.flags.writeable and np.array_equal(loaded, dist.table)


def test_writable_integer_or_clamped_tables_are_copied():
    writable = np.full(4, 0.25)
    dist = hi.StringDistribution(2, writable)
    assert not np.shares_memory(dist.table, writable) and not dist.table.flags.writeable
    writable[0] = 0.5
    assert dist.table[0] == 0.25
    assert hi.StringDistribution(1, np.array([0, 1])).table.dtype == np.float64
    noisy = np.array([-1e-13, 1.0])
    noisy.setflags(write=False)
    dist = hi.StringDistribution(1, noisy)
    assert dist.table[0] == 0.0 and noisy[0] == -1e-13


@pytest.mark.parametrize("table, error, message", [
    ([np.nan, -0.5, 2.0, 0.0], NonFiniteError, "p(00) = nan is not finite"),
    ([0.5, -0.5, 2.0, -np.inf], NonFiniteError, "p(11) = -inf is not finite"),
    ([0.5, 2.0, -0.5, 0.0], NegativeEntryError, "p(10) = -0.5 is negative"),
    ([0.5, 0.25, 1.5, 0.0], EntryOutOfRangeError, "p(10) = 1.5 exceeds 1"),
])
def test_validate_reports_the_first_violated_check(table, error, message):
    with pytest.raises(error) as caught:
        hi.validate(hi.StringDistribution(2, np.array(table)))
    assert str(caught.value) == message


def test_validate_accepts_simulated_tables():
    for d in (1, 2, 3, 4):
        params = hi.random_stochastic(d, 17 + d)
        hi.validate(hi.full_distribution(params, 5))


def test_validate_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        dist = hi.StringDistribution(2, np.array([0.25, bad, 0.25, 0.25]))
        with pytest.raises(NonFiniteError, match=r"p\(01\)"):
            hi.validate(dist)


def test_from_dict_rejects_malformed_payloads():
    good = {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
    for n in (2.0, 3.7, True, [2], "2", None, 0):
        with pytest.raises(LengthError):
            hi.StringDistribution.from_dict(n, good)
    for probabilities in (5, [0.25] * 4, None):
        with pytest.raises(MissingKeyError):
            hi.StringDistribution.from_dict(2, probabilities)
    # a declared length far beyond the key count fails before any allocation
    with pytest.raises(MissingKeyError):
        hi.StringDistribution.from_dict(10 ** 12, good)
    # int(key, 2) would accept "+1" and " 1"; keys must be exactly n binary digits
    for key in ("+1", " 1", "1 ", "0b", "111", 3):
        payload = {k: v for k, v in good.items() if k != "11"}
        payload[key] = 0.25
        with pytest.raises(MissingKeyError):
            hi.StringDistribution.from_dict(2, payload)
    for value in (None, "0.25", True, [0.25]):
        with pytest.raises(NonFiniteError):
            hi.StringDistribution.from_dict(2, dict(good, **{"11": value}))


def test_from_dict_refuses_an_integer_beyond_a_double():
    with pytest.raises(NonFiniteError):
        hi.StringDistribution.from_dict(1, {"0": 0.5, "1": 10 ** 400})


def test_from_dict_accepts_any_key_order_and_numeric_type():
    dist = hi.StringDistribution.from_dict(2, {"11": 0.4, "00": 0.1, "10": 0.3, "01": 0.2})
    assert np.array_equal(dist.table, [0.1, 0.2, 0.3, 0.4])
    dist = hi.StringDistribution.from_dict(1, {"1": np.float32(0.5), "0": np.int64(0)})
    assert np.array_equal(dist.table, [0.0, 0.5])


def test_each_marginal_is_the_next_one_summed_over_its_last_symbol():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        table = rng.uniform(size=2 ** n)
        dist = hi.StringDistribution(n, table / table.sum())
        for m in range(n):
            longer = hi.marginalize(dist, m + 1)
            assert np.array_equal(hi.marginalize(dist, m), longer[0::2] + longer[1::2])

"""Integer gradient ascent: convergence, the step-size schedule law,
revert-boundary handling, and sequence variable plumbing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popfuzz.actions import (
    A1_TRANSFER_PCT,
    MACRO,
    ActionSpec,
    TxSequence,
    random_transaction,
)
from popfuzz.maximizer import (
    GROW,
    HALVE,
    RETIRE_BOUNDARY,
    RETIRE_FLAT,
    RETIRE_SHRINK,
    SHRINK,
    ScheduleEntry,
    VariableRef,
    apply_vector,
    extract_variables,
    get_variable,
    maximize_sequence,
    sgd_maximize,
)
from popfuzz.scenarios import builtin_names, builtin_scenario
from popfuzz.world import RawCall, Transaction, UINT_MAX
from reference_maximizer import apply_vector_reference, schedule_law_holds


# --- convergence ------------------------------------------------------------------


@pytest.mark.parametrize("c", [10**3, 10**6, 10**12])
def test_quadratic_peak_is_found_exactly(c):
    res = sgd_maximize(
        [0], lambda v: -(v[0] - c) ** 2, [0], [UINT_MAX], random.Random(0), budget=200
    )
    assert res.x[0] == c
    assert res.value == 0
    assert res.evals <= 200


@pytest.mark.parametrize("boundary", [777, 123_456, 10**9])
def test_monotone_objective_converges_to_the_revert_boundary(boundary):
    def f(v):
        return None if v[0] > boundary else v[0]

    res = sgd_maximize([0], f, [0], [UINT_MAX], random.Random(0), budget=300)
    assert res.x[0] == boundary
    assert res.evals <= 300


def test_undefined_start_is_repaired_by_halving():
    def f(v):
        return None if v[0] > 50 else v[0]

    res = sgd_maximize([10**9], f, [0], [UINT_MAX], random.Random(0), budget=300)
    assert res.value == 50
    assert res.x[0] == 50


def test_flat_objective_retires_immediately():
    schedule = []
    res = sgd_maximize(
        [10], lambda v: 7, [0], [100], random.Random(0), budget=50, schedule=schedule
    )
    assert res.converged
    assert [e.kind for e in schedule] == [RETIRE_FLAT]


def test_multivariate_peak():
    def f(v):
        return -((v[0] - 300) ** 2) - (v[1] - 4_000) ** 2

    res = sgd_maximize(
        [1, 1], f, [0, 0], [10**6, 10**6], random.Random(1), budget=500
    )
    assert res.x == [300, 4_000]


# --- the schedule law ----------------------------------------------------------------


def test_recorded_schedules_obey_the_law():
    recorded = []
    for seed, c in ((0, 12_345), (1, 10**8), (2, 17)):
        schedule = []
        sgd_maximize(
            [0],
            lambda v: -(v[0] - c) ** 2,
            [0],
            [UINT_MAX],
            random.Random(seed),
            budget=400,
            schedule=schedule,
        )
        recorded.extend(schedule)
    assert len(recorded) > 30
    assert all(schedule_law_holds(e) for e in recorded)
    kinds = {e.kind for e in recorded}
    assert GROW in kinds and SHRINK in kinds


def test_schedule_law_rejects_malformed_entries():
    # accepted move must scale |step| by exactly ceil(3/2 x) with sign kept
    assert schedule_law_holds(ScheduleEntry(0, 10, 15, GROW))
    assert not schedule_law_holds(ScheduleEntry(0, 10, 16, GROW))
    assert not schedule_law_holds(ScheduleEntry(0, 10, -15, GROW))
    # rejected move divides by 3 (floor, min 1) and flips sign
    assert schedule_law_holds(ScheduleEntry(0, 10, -3, SHRINK))
    assert not schedule_law_holds(ScheduleEntry(0, 10, 3, SHRINK))
    assert schedule_law_holds(ScheduleEntry(0, -1, 1, SHRINK))
    # undefined move halves, keeping sign; at |1| it retires instead
    assert schedule_law_holds(ScheduleEntry(0, 8, 4, HALVE))
    assert not schedule_law_holds(ScheduleEntry(0, 1, 0, HALVE))
    assert schedule_law_holds(ScheduleEntry(0, 1, 0, RETIRE_BOUNDARY))
    assert schedule_law_holds(ScheduleEntry(0, -1, 0, RETIRE_SHRINK))
    assert not schedule_law_holds(ScheduleEntry(0, 4, 0, RETIRE_SHRINK))
    assert not schedule_law_holds(ScheduleEntry(0, 4, 2, "warp"))


# --- sequence variable plumbing ---------------------------------------------------------


@pytest.fixture(scope="module")
def vault_universe():
    sc = builtin_scenario("rounding_vault")
    return sc, sc.universe()


def test_extract_variables_covers_args_pcts_and_repeats(vault_universe):
    sc, universe = vault_universe
    usd = sc.token_address("USD")
    seq = TxSequence(
        [
            Transaction(sc.attacker, RawCall(usd, "transfer", (sc.attacker, 55))),
            Transaction(
                sc.attacker,
                ActionSpec(A1_TRANSFER_PCT, token=usd, target=usd, percentage=40),
            ),
            Transaction(sc.attacker, ActionSpec(MACRO, macro="vault_seed", args=(3, 4))),
        ],
        usd,
    )
    refs = extract_variables(seq, universe)
    paths = [(r.tx_index, r.path) for r in refs]
    assert (0, ("arg", 1)) in paths  # the integer transfer amount
    assert (0, ("arg", 0)) not in paths  # addresses are not optimized
    assert (1, ("pct",)) in paths
    assert (2, ("macro_arg", 0)) in paths and (2, ("macro_arg", 1)) in paths
    assert all((i, ("repeat",)) in paths for i in range(3))
    pct_ref = next(r for r in refs if r.path == ("pct",))
    assert (pct_ref.lo, pct_ref.hi) == (0, 100)
    rep_ref = next(r for r in refs if r.path == ("repeat",))
    assert rep_ref.additive and (rep_ref.lo, rep_ref.hi) == (1, 1000)


def test_get_set_apply_round_trip(vault_universe):
    sc, universe = vault_universe
    usd = sc.token_address("USD")
    seq = TxSequence(
        [Transaction(sc.attacker, RawCall(usd, "transfer", (sc.attacker, 55)))], usd
    )
    refs = extract_variables(seq, universe)
    x = [get_variable(seq, r) for r in refs]
    assert x == [55, 1]
    out = apply_vector(seq, refs, [99, 7])
    assert [get_variable(out, r) for r in refs] == [99, 7]
    assert get_variable(seq, refs[0]) == 55  # original untouched
    back = apply_vector(out, refs[:1], [55])
    assert get_variable(back, refs[0]) == 55


_SCENARIOS = tuple(builtin_names()) + ("fair_pool", "staking_id")
_UNIVERSES = {name: builtin_scenario(name).universe() for name in _SCENARIOS}
_ALL_PATHS = {"arg", "macro_arg", "pct", "body_pct", "value", "repeat"}


def _random_case(name: str, seed: int, length: int, noact: bool):
    """A random sequence, its variables, and an in-bounds vector for them that
    keeps some values, pins some to a bound and draws the rest."""
    universe = _UNIVERSES[name]
    rng = random.Random(seed)
    txs = [random_transaction(rng, universe, noact) for _ in range(length)]
    seq = TxSequence(txs, universe.pricing_tokens[0])
    refs = extract_variables(seq, universe)
    x = []
    for ref in refs:
        roll = rng.random()
        if roll < 0.4:
            x.append(get_variable(seq, ref))
        elif roll < 0.5:
            x.append(rng.choice((ref.lo, ref.hi)))
        else:
            x.append(rng.randint(ref.lo, ref.hi))
    return seq, refs, x


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_SCENARIOS),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
)
def test_apply_vector_matches_reference_fold(name, seed, length, noact):
    seq, refs, x = _random_case(name, seed, length, noact)
    txs_before = list(seq.txs)
    out = apply_vector(seq, refs, x)
    assert out == apply_vector_reference(seq, refs, x)
    assert [get_variable(out, r) for r in refs] == x
    assert all(a is b for a, b in zip(seq.txs, txs_before))  # the input is untouched
    assert len(seq.txs) == len(txs_before)
    changed = {r.tx_index for r, v in zip(refs, x) if get_variable(seq, r) != v}
    for i, tx in enumerate(seq.txs):
        if i not in changed:
            assert out.txs[i] is tx  # unchanged transactions are shared


def test_apply_vector_cases_reach_every_variable_kind():
    seen = set()
    for seed in range(200):
        name = _SCENARIOS[seed % len(_SCENARIOS)]
        _seq, refs, _x = _random_case(name, seed, 8, seed % 5 == 0)
        seen.update(r.path[0] for r in refs)
    assert seen == _ALL_PATHS


def test_maximize_sequence_climbs_an_argument(vault_universe):
    sc, universe = vault_universe
    usd = sc.token_address("USD")
    seq = TxSequence(
        [Transaction(sc.attacker, RawCall(usd, "transfer", (sc.attacker, 3)))], usd
    )

    def evaluate(s):
        amount = s.txs[0].kind.args[1]
        return -(amount - 12_345) ** 2

    result = maximize_sequence(
        seq, universe, evaluate, culprits=(0,), rng=random.Random(0), budget=400
    )
    assert result.seq.txs[0].kind.args[1] == 12_345
    assert result.profit == 0
    assert result.evals <= 400


def test_maximize_sequence_records_lawful_schedules(vault_universe):
    sc, universe = vault_universe
    usd = sc.token_address("USD")
    seq = TxSequence(
        [Transaction(sc.attacker, RawCall(usd, "transfer", (sc.attacker, 3)))], usd
    )

    def evaluate(s):
        amount = s.txs[0].kind.args[1]
        return None if amount > 10**6 else amount

    result = maximize_sequence(
        seq,
        universe,
        evaluate,
        culprits=(),
        rng=random.Random(2),
        budget=400,
        record_schedule=True,
    )
    assert result.schedule
    assert all(schedule_law_holds(e) for e in result.schedule)
    assert result.profit == 10**6

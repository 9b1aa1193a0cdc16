"""The search engine: corpus-guided sequence mutation, candidate detection,
argument optimization, and replay-verified proofs of profit.

One campaign = one scenario + one configuration. Every random draw comes from
a single seeded generator, so a campaign is a pure function of
(scenario, config) and replays bit-for-bit.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .actions import (
    MAX_SEQUENCE_LEN,
    ActionSpec,
    TxSequence,
    mutate,
    seed_sequence,
    splice,
)
from .maximizer import maximize_sequence
from .oracle import (
    POSITIVE_PROFIT,
    Candidate,
    account,
    classify,
)
from .scenarios import Scenario, merge_victim_txs
from .world import ExecutionReceipt, RawCall, Transaction, execute_sequence


# The full engine and its ablations, each of which drops one layer:
#   noact  raw calls only, uniform integer arguments
#   nocdt  positive profit is the only candidate criterion
#   noacc  raw pricing-token balance instead of liquidation value
#   nogrd  no argument optimization of candidates
VARIANTS = ("full", "noact", "nocdt", "noacc", "nogrd")

CANDIDATE_WEIGHT = 5  # candidate entries' selection weight against novel ones
MAX_RARITY_BOOST = 32  # cap on the rare-criterion selection multiplier
MAX_CANDIDATES = 128  # corpus cap, candidate tier (FIFO eviction)
MAX_NOVEL = 256  # corpus cap, novelty tier (FIFO eviction)
MAX_ELITE = 16  # verified-profit structures retained for focused mutation
ELITE_BIAS = 0.4  # share of selections drawn from the elite set
SPLICE_BIAS = 0.1  # share of children built by crossover before mutation


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 1
    iterations: int = 4000
    max_len: int = MAX_SEQUENCE_LEN
    sgd_budget: int = 2000  # profit evaluations per optimized candidate structure
    sgd_total_budget: int = 8000  # profit evaluations across the whole campaign
    sgd_restarts: int = 3
    variant: str = "full"  # one of VARIANTS
    record_schedule: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown engine variant {self.variant!r}")

    @property
    def full_accounting(self) -> bool:
        """Profits are liquidation values, except under noacc."""
        return self.variant != "noacc"


@dataclass
class Proof:
    """A replay-verified profitable sequence."""

    pricing_token: str
    txs: list  # Transaction list, attacker sequence only
    profit: int
    criteria: tuple
    iteration: int
    optimized: bool


@dataclass
class CampaignStats:
    iterations: int = 0
    executed_txs: int = 0
    sgd_evals: int = 0
    sgd_runs: int = 0
    elapsed: float = 0.0
    corpus_candidates: int = 0
    corpus_novel: int = 0
    candidate_counts: dict = field(default_factory=dict)


@dataclass
class CampaignResult:
    config: CampaignConfig
    best: dict  # pricing token -> Proof
    proofs: list
    stats: CampaignStats
    schedules: list = field(default_factory=list)

    @property
    def best_profit(self) -> int:
        return max((p.profit for p in self.best.values()), default=0)

    def best_proof(self) -> Optional[Proof]:
        if not self.best:
            return None
        return max(self.best.values(), key=lambda p: p.profit)


class ReplayMismatch(Exception):
    """A claimed profit did not reproduce under exact replay."""


# --- structural keys ---------------------------------------------------------


def _tx_structure(tx: Transaction) -> tuple:
    kind = tx.kind
    if isinstance(kind, RawCall):
        args = tuple(a if isinstance(a, str) else "#" for a in kind.args)
        return ("raw", kind.target, kind.fn, args)
    if isinstance(kind, ActionSpec):
        return (
            "act",
            kind.kind,
            kind.token,
            kind.token2,
            kind.target,
            kind.direction,
            kind.side,
            kind.macro,
            tuple(_tx_structure(b) for b in kind.body),
        )
    return ("?",)


def sequence_structure(seq: TxSequence) -> tuple:
    """Identity of a sequence with all numeric arguments erased. The optimizer
    runs once per distinct structure."""
    return (seq.pricing_token,) + tuple(_tx_structure(t) for t in seq.txs)


def _tx_tag(tx: Transaction) -> tuple:
    kind = tx.kind
    if isinstance(kind, RawCall):
        return ("raw", kind.target, kind.fn)
    if isinstance(kind, ActionSpec):
        return ("act", kind.kind, kind.direction, kind.macro)
    return ("?",)


def outcome_signature(seq: TxSequence, receipt: ExecutionReceipt) -> tuple:
    """Coarse behavioral signature used for novelty admission: what each
    transaction is and whether (and why) it failed."""
    ok: dict[int, bool] = {}
    reason: dict[int, str] = {}
    prev = None
    for o in receipt.outcomes:
        if o is prev:  # repeats share one outcome instance
            continue
        prev = o
        i = o.logical_index
        if i < 0:  # a victim transaction
            continue
        ok[i] = ok.get(i, False) or o.ok
        if not o.ok and i not in reason:
            reason[i] = o.reason
    sig = tuple(
        (_tx_tag(tx), ok.get(i, False), reason.get(i, ""))
        for i, tx in enumerate(seq.txs)
    )
    return (seq.pricing_token,) + sig


# --- execution and profit ----------------------------------------------------


def execute_with_victims(
    scenario: Scenario, base_state, seq: TxSequence, max_len: int, stop_at_dead: bool = False
):
    txs, logical = merge_victim_txs(seq.txs, scenario.victim_txs)
    return execute_sequence(base_state, txs, max_len, logical, stop_at_dead=stop_at_dead)


def replay_profit(scenario: Scenario, seq: TxSequence, config: CampaignConfig) -> int:
    """Recompute a sequence's profit from scratch, under the accounting mode
    and length cap of the run that found it. Used to verify every proof."""
    base = scenario.build_state()
    cluster, full_acc = scenario.cluster, config.full_accounting
    receipt = execute_with_victims(scenario, base, seq, config.max_len)
    initial = account(base, seq.pricing_token, cluster, full_acc).value
    final = account(receipt.state, seq.pricing_token, cluster, full_acc).value
    return final - initial


# --- campaign loop -----------------------------------------------------------


def run_campaign(scenario: Scenario, config: CampaignConfig) -> CampaignResult:
    rng = random.Random(config.seed)
    # The optimizer draws from its own stream and its outputs never enter the
    # corpus or elite tiers, so the structural search walks the same trajectory
    # with or without it: argument optimization is a strict enhancement layer,
    # and the full engine's best can never fall below the optimizer-less run.
    sgd_rng = random.Random(f"{config.seed}:optimizer")
    base = scenario.build_state()
    universe = scenario.universe()
    cluster = scenario.cluster
    full_acc = config.full_accounting
    noact = config.variant == "noact"
    initial_values = {
        p: account(base, p, cluster, full_acc).value for p in universe.pricing_tokens
    }

    stats = CampaignStats()
    stats.candidate_counts = {}
    schedules: list = []
    best: dict[str, Proof] = {}
    proofs: list[Proof] = []
    optimized_structures: set = set()
    seen_signatures: set = set()

    # a full run has one outcome per repeat of every attacker and victim tx
    victim_repeats = sum(v.tx.repeat for v in scenario.victim_txs)

    def execute(seq: TxSequence, stop_at_dead: bool = False) -> ExecutionReceipt:
        stats.executed_txs += victim_repeats + sum(tx.repeat for tx in seq.txs)
        return execute_with_victims(scenario, base, seq, config.max_len, stop_at_dead)

    def profit_of(seq: TxSequence, receipt: ExecutionReceipt) -> int:
        final = account(receipt.state, seq.pricing_token, cluster, full_acc).value
        return final - initial_values[seq.pricing_token]

    def sgd_objective(seq: TxSequence) -> Optional[int]:
        # a dead attacker transaction makes the objective undefined, so the
        # run can stop at the first one
        receipt = execute(seq, stop_at_dead=True)
        return None if receipt.dead else profit_of(seq, receipt)

    # profitable structures kept immune to corpus eviction: [structure, profit, seq]
    elite: list = []

    def note_elite(seq: TxSequence, profit: int) -> None:
        structure = sequence_structure(seq)
        for entry in elite:
            if entry[0] == structure:
                if profit > entry[1]:
                    entry[1], entry[2] = profit, seq
                return
        elite.append([structure, profit, seq])
        if len(elite) > MAX_ELITE:
            elite.remove(min(elite, key=lambda e: e[1]))

    def record_best(seq: TxSequence, claimed: int, criteria: tuple, it: int, optimized: bool):
        """Verify a profitable find by exact replay, then record it."""
        if claimed <= 0:
            return
        if not optimized:
            note_elite(seq, claimed)
        current = best.get(seq.pricing_token)
        if current is not None and claimed <= current.profit:
            return
        verified = replay_profit(scenario, seq, config)
        if verified != claimed:
            raise ReplayMismatch(
                f"{scenario.name}: claimed {claimed} but replay produced {verified}"
            )
        # optimization can lift a non-profitable candidate into profit, so the
        # admission-time criteria may lack the profit flag the replay just proved
        criteria = tuple(sorted(set(criteria) | {POSITIVE_PROFIT}))
        proof = Proof(seq.pricing_token, list(seq.txs), verified, criteria, it, optimized)
        proofs.append(proof)
        best[seq.pricing_token] = proof

    def climb(seq: TxSequence, culprits: tuple, budget: int, to_beat: int,
              criteria: tuple, it: int) -> None:
        """One optimizer run from `seq`; records its result if it beats `to_beat`."""
        result = maximize_sequence(
            seq,
            universe,
            sgd_objective,
            culprits,
            sgd_rng,
            budget=budget,
            max_restarts=config.sgd_restarts,
            record_schedule=config.record_schedule,
        )
        stats.sgd_evals += result.evals
        stats.sgd_runs += 1
        if result.schedule:
            schedules.append(result.schedule)
        if result.profit > to_beat:
            record_best(result.seq, result.profit, criteria, it, optimized=True)

    # corpus tiers: candidates (with the criteria that admitted them) are
    # selected CANDIDATE_WEIGHT x as often as novel entries, boosted further
    # when their rarest criterion is underrepresented in the campaign so far.
    candidates_tier: list[tuple[TxSequence, tuple]] = []
    novel_tier: list[TxSequence] = [seed_sequence(rng, universe, noact)]
    cand_cum: list[int] = []
    cand_dirty = True

    def entry_weight(criteria: tuple, total: int) -> int:
        """Selection weight of a candidate entry; `total` is the sum of the
        campaign's criterion counts."""
        counts = stats.candidate_counts
        if not criteria or not counts:
            return CANDIDATE_WEIGHT
        rarest = min(counts.get(c, 1) for c in criteria)
        boost = min(MAX_RARITY_BOOST, max(1, total // max(1, rarest)))
        return CANDIDATE_WEIGHT * boost

    def pick_parent() -> TxSequence:
        nonlocal cand_dirty, cand_cum
        if elite and rng.random() < ELITE_BIAS:
            return rng.choice(elite)[2]
        if cand_dirty or it % 32 == 0:
            total = sum(stats.candidate_counts.values())
            cand_cum = list(
                itertools.accumulate(entry_weight(c, total) for _, c in candidates_tier)
            )
            cand_dirty = False
        cand_total = cand_cum[-1] if cand_cum else 0
        total = cand_total + len(novel_tier)
        if total == 0:
            return seed_sequence(rng, universe, noact)
        roll = rng.randrange(total)
        if roll < cand_total:
            return candidates_tier[bisect.bisect_right(cand_cum, roll)][0]
        return novel_tier[roll - cand_total]

    def any_corpus_member() -> Optional[TxSequence]:
        pool_size = len(elite) + len(candidates_tier) + len(novel_tier)
        if pool_size == 0:
            return None
        roll = rng.randrange(pool_size)
        if roll < len(elite):
            return elite[roll][2]
        roll -= len(elite)
        if roll < len(candidates_tier):
            return candidates_tier[roll][0]
        return novel_tier[roll - len(candidates_tier)]

    started = time.perf_counter()
    for it in range(config.iterations):
        parent = pick_parent()
        if rng.random() < SPLICE_BIAS:
            other = any_corpus_member()
            if other is not None and other is not parent:
                parent = splice(parent, other, rng)

        child = mutate(parent, rng, universe, noact)
        while rng.random() < 0.3:
            child = mutate(child, rng, universe, noact)
        receipt = execute(child)
        profit = profit_of(child, receipt)

        found = [] if config.variant == "nocdt" else classify(receipt, cluster)
        if profit > 0:
            found.append(Candidate(POSITIVE_PROFIT, ()))
        for cand in found:
            stats.candidate_counts[cand.criterion] = (
                stats.candidate_counts.get(cand.criterion, 0) + 1
            )
        criteria = tuple(sorted({cand.criterion for cand in found}))

        sig = outcome_signature(child, receipt) + (criteria,)
        if sig not in seen_signatures:
            seen_signatures.add(sig)
            if found:
                candidates_tier.append((child, criteria))
                if len(candidates_tier) > MAX_CANDIDATES:
                    candidates_tier.pop(0)
                cand_dirty = True
            else:
                novel_tier.append(child)
                if len(novel_tier) > MAX_NOVEL:
                    novel_tier.pop(0)

        if not found:
            continue

        record_best(child, profit, criteria, it, optimized=False)

        structure = sequence_structure(child)
        if structure in optimized_structures:
            continue
        optimized_structures.add(structure)
        if config.variant == "nogrd":
            continue
        # the campaign-wide eval budget rations speculative candidates; a
        # structure whose raw profit already beats the best found so far is
        # always worth climbing
        best_now = max((p.profit for p in best.values()), default=0)
        competitive = profit > best_now
        if not competitive and stats.sgd_evals >= config.sgd_total_budget:
            continue
        run_budget = config.sgd_budget
        if not competitive:
            run_budget = min(run_budget, config.sgd_total_budget - stats.sgd_evals)

        culprits = tuple(sorted({i for cand in found for i in cand.culprits}))
        climb(child, culprits, run_budget, profit, criteria, it)

    # final polish: the in-loop optimizer only sees each structure once, at
    # admission time; give every winning sequence one more full-budget climb
    # from its best-known arguments before the campaign reports out
    if config.variant != "nogrd":
        for token in sorted(best):
            current = best[token]
            climb(TxSequence(list(current.txs), token), (), config.sgd_budget,
                  current.profit, current.criteria, config.iterations)

    stats.iterations = config.iterations
    stats.elapsed = time.perf_counter() - started
    stats.corpus_candidates = len(candidates_tier)
    stats.corpus_novel = len(novel_tier)
    return CampaignResult(config, best, proofs, stats, schedules)


def verify_result(scenario: Scenario, result: CampaignResult) -> None:
    """Re-replay every emitted proof; raises ReplayMismatch on any deviation."""
    for proof in result.proofs:
        seq = TxSequence(list(proof.txs), proof.pricing_token)
        verified = replay_profit(scenario, seq, result.config)
        if verified != proof.profit:
            raise ReplayMismatch(
                f"{scenario.name}: proof at iteration {proof.iteration} claimed "
                f"{proof.profit} but replay produced {verified}"
            )

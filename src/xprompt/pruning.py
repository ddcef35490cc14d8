"""Importance scoring, structured mask selection, and hierarchical pruning.

Token scores are means over training examples of |dL(x)/d gamma_i|, the
statistic of Michel et al. (2019); piece scores are the same statistic for
zeta entries, recomputed on the tokens that survive token-level pruning. A
scoring sweep is a pure function of the prompt and the masks, so a prune
grid scores tokens once per run and pieces once per token ratio, and shares
each report, read-only, among the cells that use it.
A selection is the pair of 0/1 mask arrays the bank holds, gamma (m,) and
zeta (m, k): selecting writes floor(ratio * live) removals, under a
documented deterministic tie-break, into copies of a report's liveness
flags, and kept_params counts parameters from the same arrays. Rewinding
sets the prompt back to the values it is given, the prompt hierarchical
pruning was called with, and installs the masks; each cell then retrains
through tune, which builds its own optimizer on every call, so every cell
starts from a fresh optimizer state. CellResult holds the best-cell rank
and the saliency rule (each score from the sweep where it was last live).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .backbone import FrozenBackbone, _forward_packed
from .errors import ConfigError, DataError
from .prompt import PromptBank, TuneResult, evaluate, tune
from .util import stable_seed

log = logging.getLogger("xprompt.pruning")

RULES = ("lowest_score", "random", "reversed")

SCORE_BATCH = 16


# --- importance reports ---------------------------------------------------------


@dataclass
class ImportanceReport:
    """Nonnegative sensitivity scores with liveness flags.

    Structures that were already pruned when the report was taken carry a
    score of exactly 0 and a False flag.
    """

    token_scores: np.ndarray       # (m,)
    piece_scores: np.ndarray       # (m, k)
    token_live: np.ndarray         # (m,) bool
    piece_live: np.ndarray         # (m, k) bool
    examples_seen: int


def mask_gradients(bank: PromptBank, bb: FrozenBackbone, batch) -> tuple[np.ndarray, np.ndarray]:
    """The signed per-example mask gradients at the current masks: the
    (B, m) dL(x)/d gamma and the (B, m, k) dL(x)/d zeta of each example x.

    The batch runs one packed forward and backward, with one leaf per
    sequence holding the masked prompt values, so leaf x's gradient is
    G_x / B, with G_x = dL(x)/d(masked prompt). The masked prompt
    P * gamma * zeta is linear in each mask, so with S_x[i, c] the sum over
    the columns j of piece c of G_x[i, j] P[i, j], dL(x)/d zeta_ic =
    gamma_i S_x[i, c] and dL(x)/d gamma_i = sum_c zeta_ic S_x[i, c].
    """
    leaves = [ag.leaf(bank.effective_values(), op="prompt") for _ in batch]
    logits = _forward_packed(bb, leaves, [ex.tokens for ex in batch])
    ag.backward(ag.softmax_cross_entropy(logits, [ex.label for ex in batch]))
    del logits  # the leaves hold their gradients; free the graph now
    gp = np.stack([leaf.grad for leaf in leaves]) * (len(batch) * bank.p)
    s = gp.reshape(len(batch), bank.m, bank.k, -1).sum(axis=3)
    return (s * bank.piece_mask).sum(axis=2), s * bank.token_mask[:, None]


def score_tokens(bank: PromptBank, bb: FrozenBackbone, train,
                 batch_size: int = SCORE_BATCH) -> ImportanceReport:
    """Token and piece importance at the current masks: the means over
    examples of |dL(x)/d gamma_i| and |dL(x)/d zeta_ic|, from mask_gradients
    over batches of batch_size, which sets the packing, not the statistic.
    """
    if not train:
        raise DataError("cannot score importance on an empty dataset")
    tok, pc = np.zeros(bank.m), np.zeros((bank.m, bank.k))
    for lo in range(0, len(train), batch_size):
        g_tok, g_pc = mask_gradients(bank, bb, train[lo:lo + batch_size])
        tok += np.abs(g_tok).sum(axis=0)
        pc += np.abs(g_pc).sum(axis=0)
    token_live = bank.token_mask > 0
    piece_live = token_live[:, None] & (bank.piece_mask > 0)
    tok = np.where(token_live, tok / len(train), 0.0)
    pc = np.where(piece_live, pc / len(train), 0.0)
    return ImportanceReport(tok, pc, token_live, piece_live, len(train))


# --- selections -----------------------------------------------------------------


Masks = tuple[np.ndarray, np.ndarray]  # (gamma (m,), zeta (m, k)), 0/1 floats


def kept_params(masks: Masks, e: int) -> int:
    """Kept tunable parameters: live (token, piece) cells times the piece
    width e // k; piece rows of removed tokens count zero."""
    gamma, zeta = masks
    return int((gamma[:, None] * zeta).sum()) * (e // zeta.shape[1])


def _removal_count(ratio: float, live: int) -> int:
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"pruning ratio must be in [0, 1), got {ratio}")
    return int(np.floor(ratio * live))


def _pick(order_key, candidates, p: int, rule: str, seed: int, stream: str):
    """Indices to remove: p candidates under the given rule.

    lowest_score removes the lowest scores, ties to the lower index first;
    reversed removes the highest scores, ties to the higher index first, so
    the two rules remove disjoint sets whenever 2p <= live count; random is
    a seeded uniform draw.
    """
    if rule not in RULES:
        raise ConfigError(f"unknown selection rule {rule!r}; expected one of {RULES}")
    if rule == "random":
        rng = np.random.default_rng(stable_seed(seed, "select", stream))
        picked = rng.permutation(len(candidates))[:p]
        return [candidates[int(i)] for i in picked]
    ranked = sorted(candidates, key=order_key, reverse=(rule == "reversed"))
    return ranked[:p]


def select_tokens(report: ImportanceReport, ratio: float, rule: str,
                  seed: int = 0) -> Masks:
    """Token-level selection over live tokens; kept tokens keep all live pieces."""
    live = [int(i) for i in np.flatnonzero(report.token_live)]
    p = _removal_count(ratio, len(live))
    gamma = report.token_live.astype(float)
    zeta = report.piece_live.astype(float)
    for i in _pick(lambda i: (report.token_scores[i], i), live, p, rule, seed, "tokens"):
        gamma[i] = 0.0
        zeta[i] = 0.0
    return gamma, zeta


def select_pieces(report: ImportanceReport, ratio: float, rule: str,
                  seed: int = 0) -> Masks:
    """Piece-level selection pooled globally across all live cells.

    The removal budget is floor(ratio * live cell count) over every
    (token, piece) cell that is still live, not a per-token quota.
    """
    cells = [(int(t), int(q)) for t, q in zip(*np.nonzero(report.piece_live))]
    p = _removal_count(ratio, len(cells))
    zeta = report.piece_live.astype(float)
    for c in _pick(lambda c: (report.piece_scores[c], c), cells, p, rule, seed, "pieces"):
        zeta[c] = 0.0
    return report.token_live.astype(float), zeta


def apply_selection(bank: PromptBank, selection: Masks) -> None:
    gamma, zeta = selection
    if (gamma.shape, zeta.shape) != ((bank.m,), (bank.m, bank.k)):
        raise ConfigError(f"selection masks {gamma.shape} and {zeta.shape} do not "
                          f"match bank ({bank.m}, {bank.k})")
    bank.token_mask[:] = gamma
    bank.piece_mask[:] = zeta


def rewind(bank: PromptBank, values: np.ndarray, selection: Masks) -> None:
    """Set the prompt to values and install the masks."""
    bank.p[:] = values
    apply_selection(bank, selection)


# --- hierarchical pruning -------------------------------------------------------


@dataclass(frozen=True)
class PruneSchedule:
    token_ratios: tuple[float, ...]
    piece_ratios: tuple[float, ...]
    rule: str = "lowest_score"

    def validate(self) -> None:
        for grid in (self.token_ratios, self.piece_ratios):
            if not grid:
                raise ConfigError("ratio grids must be non-empty")
            if len(set(grid)) < len(grid):
                raise ConfigError(f"ratio grid {tuple(grid)} lists a ratio twice")
        for r in tuple(self.token_ratios) + tuple(self.piece_ratios):
            if not 0.0 <= r < 1.0:
                raise ConfigError(f"pruning ratio must be in [0, 1), got {r}")
        if self.rule not in RULES:
            raise ConfigError(f"unknown selection rule {self.rule!r}; expected one of {RULES}")


@dataclass
class CellResult:
    token_ratio: float
    piece_ratio: float
    selection: Masks
    dev_acc: float
    kept_params: int
    retrain: TuneResult
    token_report: ImportanceReport | None = None
    piece_report: ImportanceReport | None = None

    def rank(self) -> tuple:
        """The best cell has the least rank: the highest dev accuracy, then the
        fewest kept parameters, then the lexicographically smallest ratios."""
        return (-self.dev_acc, self.kept_params, self.token_ratio, self.piece_ratio)

    def saliency(self) -> ImportanceReport:
        """One report of both pruning levels: token scores and the piece rows of
        removed tokens from the token sweep, the other piece rows from the piece
        sweep, so every structure keeps the score it had when it was last live."""
        tok, pc = self.token_report, self.piece_report
        pieces = np.where(pc.token_live[:, None], pc.piece_scores, tok.piece_scores)
        return ImportanceReport(tok.token_scores.copy(), pieces, tok.token_live.copy(),
                                tok.piece_live.copy(), pc.examples_seen)


@dataclass
class PruneResult:
    best: CellResult
    cells: list[CellResult] = field(default_factory=list)


def hierarchical_prune(bank: PromptBank, bb: FrozenBackbone, train, dev,
                       sched: PruneSchedule, retrain_epochs: int, lr: float,
                       weight_decay: float = 0.0, batch_size: int = 16,
                       seed: int = 0) -> PruneResult:
    """Grid search over (token ratio, piece ratio) cells, scoring each mask
    state once.

    The rewind point is the prompt bank.p holds when the call starts; every
    command passes stage 1's trained prompt, as the paper's lottery-ticket
    rewinding asks. Token scores are taken once per run, at that prompt with
    all-ones masks. Each token ratio selects tokens from that report, and
    pieces are rescored once per token ratio, at that prompt with that
    ratio's token masks. Each cell then selects pieces from its row's piece
    report, rewinds to that prompt, and retrains with tune at ``lr`` and
    ``weight_decay``; every tune call builds its own optimizer, so every
    cell starts from a fresh optimizer state. A sweep depends only on the
    prompt and the masks, so every cell sees exactly the scores a per-cell
    rescoring would give, for 1 + |T| sweeps instead of 2 * |T| * |P|.
    ``seed`` seeds the random rule's selections and the retraining shuffles.

    Each cell's ``selection`` holds the (gamma, zeta) masks it retrained
    under, and its ``kept_params`` counts them with ``kept_params``.

    All cells share one ``token_report`` object, and the cells of one token
    ratio share one ``piece_report``; callers must treat reports as
    read-only, and CellResult.saliency merges a cell's two into one.

    The returned best cell has the least CellResult.rank, which holds the
    tie-break, and the bank is left in its retrained state.
    """
    sched.validate()
    if retrain_epochs < 0:
        raise ConfigError(f"retrain_epochs must be >= 0, got {retrain_epochs}")

    cells: list[CellResult] = []
    best: CellResult | None = None
    best_p: np.ndarray | None = None

    start = bank.p.copy()
    bank.reset_masks()
    token_report = score_tokens(bank, bb, train, batch_size=batch_size)

    for t_ratio in sched.token_ratios:
        token_sel = select_tokens(token_report, t_ratio, sched.rule, seed)
        rewind(bank, start, token_sel)
        # the same sweep, rescored over the surviving tokens only
        piece_report = score_tokens(bank, bb, train, batch_size=batch_size)

        for p_ratio in sched.piece_ratios:
            selection = select_pieces(piece_report, p_ratio, sched.rule, seed)
            rewind(bank, start, selection)
            retrain = tune(bank, bb, train, dev, retrain_epochs, lr, weight_decay,
                           batch_size=batch_size, seed=seed)

            cell = CellResult(t_ratio, p_ratio, selection, retrain.best_dev_acc,
                              kept_params(selection, bank.e), retrain,
                              token_report=token_report, piece_report=piece_report)
            cells.append(cell)
            log.info("cell (%.2f, %.2f): dev=%.4f kept=%d", t_ratio, p_ratio,
                     cell.dev_acc, cell.kept_params)

            if best is None or cell.rank() < best.rank():
                best, best_p = cell, bank.p.copy()

    rewind(bank, best_p, best.selection)
    return PruneResult(best, cells)


# --- ablation baselines ---------------------------------------------------------


def baseline_negative_masking(bank: PromptBank, bb: FrozenBackbone, report: ImportanceReport,
                              dev, ratio: float, rule: str = "lowest_score",
                              seed: int = 0) -> tuple[float, Masks]:
    """Post-hoc token masking: no rewind, no retraining, bank untouched.

    report is score_tokens of bank, taken once by the caller for both rules.
    rule="lowest_score" masks the suspected negative tokens; rule="random"
    is the random-masking control at the same ratio. Returns the masked
    prompt's dev accuracy and the token masks that were applied.
    """
    probe = bank.copy()
    selection = select_tokens(report, ratio, rule, seed)
    apply_selection(probe, selection)
    return evaluate(probe, bb, dev), selection

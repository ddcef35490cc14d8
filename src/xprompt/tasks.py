"""The synthetic sequence-classification task, with a deterministic generator.

A token sequence's label is the index of the symbol group, of C contiguous
groups, with the most tokens in it; ties have no label and are never drawn.
Symbols 0 and 1 are reserved (0 is the mask token of backbone pretraining),
so generated ids are >= 2; an example gets DRAWS draws before it is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .util import stable_seed

RESERVED_SYMBOLS = 2
# draws per example, of any label, before generate refuses the spec
DRAWS = 10_000


@dataclass(frozen=True)
class Example:
    """One labeled sequence. Immutable so datasets are value-semantic."""

    tokens: tuple[int, ...]
    label: int


@dataclass(frozen=True)
class TaskSpec:
    name: str
    vocab_size: int
    num_classes: int
    seq_len_min: int
    seq_len_max: int
    train_size: int
    dev_size: int
    seed: int

    def validate(self) -> None:
        if self.vocab_size < 8:
            raise ConfigError(f"vocab_size must be >= 8, got {self.vocab_size}")
        if self.num_classes not in (2, 3):
            raise ConfigError(f"num_classes must be 2 or 3, got {self.num_classes}")
        if not (1 <= self.seq_len_min <= self.seq_len_max):
            raise ConfigError(
                f"bad seq_len range [{self.seq_len_min}, {self.seq_len_max}]")
        if self.train_size < 1 or self.dev_size < 1:
            raise ConfigError("train_size and dev_size must be positive")


def majority_groups(spec: TaskSpec) -> list[range]:
    """Contiguous, equal-width symbol groups; leftover symbols act as filler."""
    width = (spec.vocab_size - RESERVED_SYMBOLS) // (spec.num_classes + 1)
    return [range(RESERVED_SYMBOLS + c * width, RESERVED_SYMBOLS + (c + 1) * width)
            for c in range(spec.num_classes)]


def label_of(spec: TaskSpec, tokens: tuple[int, ...]) -> int | None:
    """Ground-truth label, or None where the rule is undecided (ties)."""
    counts = [sum(1 for t in tokens if t in g) for g in majority_groups(spec)]
    top = max(counts)
    if counts.count(top) != 1:
        return None
    return counts.index(top)


def generate(spec: TaskSpec) -> dict[str, tuple[Example, ...]]:
    """Deterministic {train, dev} splits, exactly class-balanced, disjoint.

    Train and dev draw from independent seed streams. Each example keeps the
    first of at most DRAWS draws whose label is its target and that is not a
    train sequence; a spec with an example that finds none is refused.
    """
    spec.validate()
    splits: dict[str, tuple[Example, ...]] = {}
    train_seqs: set[tuple[int, ...]] = set()  # empty while train is drawn
    for split, size in (("train", spec.train_size), ("dev", spec.dev_size)):
        rng = np.random.default_rng(stable_seed(spec.seed, spec.name, split))
        out = []
        for i in range(size):
            target = i % spec.num_classes
            for _ in range(DRAWS):
                n = int(rng.integers(spec.seq_len_min, spec.seq_len_max + 1))
                seq = tuple(int(t) for t in rng.integers(RESERVED_SYMBOLS, spec.vocab_size, size=n))
                if label_of(spec, seq) == target and seq not in train_seqs:
                    break
            else:
                outside = " outside the train split" if train_seqs else ""
                raise ConfigError(f"the {split} split found no label-{target} sequence{outside} "
                                  f"in {DRAWS} draws under spec {spec.name!r}")
            out.append(Example(seq, target))
        splits[split] = tuple(out)
        if split == "train":
            train_seqs = {ex.tokens for ex in out}
    return splits


# --- serialization ------------------------------------------------------------


def load_jsonl(path: str, vocab_size: int | None = None,
               num_classes: int | None = None) -> tuple[Example, ...]:
    """Read one example per line; errors carry the offending line number."""
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise DataError(f"{path} is not UTF-8 ({err.reason} at byte {err.start})") from None
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror or err}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise DataError(f"line {lineno}: not valid JSON ({err.msg})") from err
        if not isinstance(rec, dict) or "tokens" not in rec or "label" not in rec:
            raise DataError(f"line {lineno}: record needs 'tokens' and 'label'")
        toks = rec["tokens"]
        label = rec["label"]
        # exact type checks: JSON true and false load as bool, an int subclass
        if (not isinstance(toks, list) or not toks
                or not all(type(t) is int for t in toks)):
            raise DataError(f"line {lineno}: 'tokens' must be a non-empty list of ints")
        if type(label) is not int:
            raise DataError(f"line {lineno}: 'label' must be an int")
        if any(t < 0 for t in toks):
            raise DataError(f"line {lineno}: negative token id")
        if vocab_size is not None and any(t >= vocab_size for t in toks):
            bad = next(t for t in toks if t >= vocab_size)
            raise DataError(f"line {lineno}: token id {bad} >= vocab_size {vocab_size}")
        if label < 0 or (num_classes is not None and label >= num_classes):
            raise DataError(f"line {lineno}: label {label} out of range")
        out.append(Example(tuple(toks), label))
    return tuple(out)


# --- sampling and metrics -----------------------------------------------------


def fewshot_subsample(dataset, shots: int, seed: int):
    """Seeded uniform sample without replacement; order is deterministic."""
    n = len(dataset)
    if shots < 1 or shots > n:
        raise DataError(f"shots must be in [1, {n}], got {shots}")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)[:shots]
    return tuple(dataset[int(i)] for i in idx)


def accuracy(predictions, labels) -> float:
    preds = list(predictions)
    labs = list(labels)
    if len(preds) != len(labs):
        raise DataError(f"{len(preds)} predictions vs {len(labs)} labels")
    if not labs:
        raise DataError("accuracy of an empty set is undefined")
    return sum(1 for p, l in zip(preds, labs) if p == l) / len(labs)


def pretrain_corpus(dataset) -> list[tuple[int, ...]]:
    """Unlabeled corpus for masked-token pretraining: the task sequences,
    sorted. Sorting keeps the symbol statistics but makes a masked position
    predictable from its neighbors, which uniform random order is not."""
    return [tuple(sorted(ex.tokens)) for ex in dataset]

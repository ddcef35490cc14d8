"""Task generators, serialization, few-shot sampling, accuracy."""

import json
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xprompt import tasks
from xprompt.errors import ConfigError, DataError


def spec(**kw):
    base = dict(name="t", vocab_size=16, num_classes=2,
                seq_len_min=6, seq_len_max=10, train_size=40, dev_size=20, seed=9)
    base.update(kw)
    return tasks.TaskSpec(**base)


def test_generate_is_deterministic():
    a = tasks.generate(spec())
    b = tasks.generate(spec())
    assert a == b


def test_generate_seed_changes_data():
    a = tasks.generate(spec())
    b = tasks.generate(spec(seed=10))
    assert a != b


def test_splits_are_disjoint():
    data = tasks.generate(spec())
    train_seqs = {ex.tokens for ex in data["train"]}
    assert all(ex.tokens not in train_seqs for ex in data["dev"])


def test_class_balance_within_5pct():
    data = tasks.generate(spec(train_size=64, dev_size=32))
    for split in data.values():
        counts = np.bincount([ex.label for ex in split], minlength=2)
        assert abs(counts[0] - counts[1]) <= 0.05 * len(split) + 1


def test_majority_class_against_independent_counter():
    sp = spec(vocab_size=20, num_classes=3, train_size=30, dev_size=12)
    groups = tasks.majority_groups(sp)
    for ex in tasks.generate(sp)["train"]:
        counts = [sum(t in g for t in ex.tokens) for g in groups]
        assert counts[ex.label] == max(counts)
        assert counts.count(max(counts)) == 1


def test_tokens_in_range_and_reserved_ids_unused():
    data = tasks.generate(spec())
    for ex in data["train"] + data["dev"]:
        assert all(tasks.RESERVED_SYMBOLS <= t < 16 for t in ex.tokens)
        assert spec().seq_len_min <= len(ex.tokens) <= spec().seq_len_max


def test_infeasible_spec_rejected():
    with pytest.raises(ConfigError):
        tasks.generate(spec(vocab_size=7))


@contextmanager
def alarm(seconds: int):
    """Fail, instead of hanging, when the body runs past seconds."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SMALL_SPECS = st.builds(
    lambda classes, vocab, lo, extra, train, dev, seed: spec(
        num_classes=classes, vocab_size=vocab, seq_len_min=lo,
        seq_len_max=min(lo + extra, 3), train_size=train, dev_size=dev, seed=seed),
    st.sampled_from((2, 3)), st.integers(8, 12),
    st.integers(1, 3), st.integers(0, 2), st.integers(1, 300), st.integers(1, 300),
    st.integers(0, 3))


# a spec whose dev split cannot avoid the train split
@example(spec(seq_len_min=1, seq_len_max=1, vocab_size=8, train_size=200, dev_size=128))
@given(SMALL_SPECS)
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
def test_generate_balances_or_refuses_small_specs(sp):
    """Splits come back exactly class-balanced, disjoint and within the
    length range, or generation raises ConfigError; never a hang."""
    try:
        with alarm(5):
            data = tasks.generate(sp)
    except ConfigError:
        return
    for split, size in (("train", sp.train_size), ("dev", sp.dev_size)):
        labels = [ex.label for ex in data[split]]
        assert labels == [i % sp.num_classes for i in range(size)]
        for ex in data[split]:
            assert sp.seq_len_min <= len(ex.tokens) <= sp.seq_len_max
            assert tasks.label_of(sp, ex.tokens) == ex.label
    assert not {ex.tokens for ex in data["dev"]} & {ex.tokens for ex in data["train"]}


def test_refused_example_consumes_at_most_DRAWS_draws(monkeypatch):
    """An example is refused after DRAWS draws of its split's stream, whether
    its draws had the wrong label or were train sequences."""
    default_rng, streams = np.random.default_rng, []

    class Counting:
        def __init__(self, seed):
            self.rng, self.draws = default_rng(seed), 0

        def integers(self, low, high, size=None):
            self.draws += size is None  # each draw takes its length first
            return self.rng.integers(low, high, size=size)

    def counting_rng(seed):
        streams.append(Counting(seed))
        return streams[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(tasks, "DRAWS", 40)
    # every one-token label-0 sequence is a train sequence
    with pytest.raises(ConfigError, match=r"^the dev split found no label-0 sequence outside "
                                          r"the train split in 40 draws under spec 't'$"):
        tasks.generate(spec(seq_len_min=1, seq_len_max=1, vocab_size=8, train_size=200))
    assert streams[1].draws == 40
    monkeypatch.setattr(tasks, "DRAWS", 2)
    with pytest.raises(ConfigError, match=r"^the train split found no label-\d sequence "
                                          r"in 2 draws under spec 't'$"):
        tasks.generate(spec())


# --- jsonl ---------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    data = tasks.generate(spec())["train"]
    path = str(tmp_path / "d.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"tokens": list(ex.tokens), "label": ex.label}) + "\n"
                      for ex in data)
    back = tasks.load_jsonl(path, vocab_size=16, num_classes=2)
    assert back == data


def test_jsonl_label_out_of_range_names_line(tmp_path):
    path = str(tmp_path / "d.jsonl")
    with open(path, "w") as fh:
        fh.write('{"tokens": [2, 3], "label": 0}\n')
        fh.write('{"tokens": [2, 3], "label": 2}\n')
    with pytest.raises(DataError) as exc:
        tasks.load_jsonl(path, num_classes=2)
    assert "line 2" in str(exc.value)
    with open(path, "w") as fh:
        fh.write('{"tokens": [2, 3], "label": 0}\n')
        fh.write('{"tokens": [2, 3], "label": false}\n')
    with pytest.raises(DataError, match="line 2: 'label' must be an int"):
        tasks.load_jsonl(path, num_classes=2)


def test_jsonl_malformed_line_names_line(tmp_path):
    path = str(tmp_path / "d.jsonl")
    with open(path, "w") as fh:
        fh.write('{"tokens": [2], "label": 0}\n')
        fh.write("{not json\n")
    with pytest.raises(DataError) as exc:
        tasks.load_jsonl(path)
    assert "line 2" in str(exc.value)


def test_jsonl_rejects_bad_tokens(tmp_path):
    path = str(tmp_path / "d.jsonl")
    with open(path, "w") as fh:
        fh.write('{"tokens": [], "label": 0}\n')
    with pytest.raises(DataError):
        tasks.load_jsonl(path)
    with open(path, "w") as fh:
        fh.write('{"tokens": [99], "label": 0}\n')
    with pytest.raises(DataError):
        tasks.load_jsonl(path, vocab_size=16)
    with open(path, "w") as fh:
        fh.write('{"tokens": [2, 3], "label": 0}\n')
        fh.write('{"tokens": [true, 3, 4], "label": 1}\n')
    with pytest.raises(DataError, match="line 2: 'tokens' must be a non-empty list of ints"):
        tasks.load_jsonl(path, vocab_size=16)


def test_jsonl_empty_file_gives_empty_dataset(tmp_path):
    path = str(tmp_path / "d.jsonl")
    open(path, "w").close()
    assert tasks.load_jsonl(path) == ()


# --- few-shot and accuracy -------------------------------------------------------


def test_fewshot_reproducible_and_distinct():
    data = tasks.generate(spec())["train"]
    a = tasks.fewshot_subsample(data, 32, seed=42)
    b = tasks.fewshot_subsample(data, 32, seed=42)
    assert a == b
    assert len(set(a)) == 32
    c = tasks.fewshot_subsample(data, 32, seed=43)
    assert a != c


def test_fewshot_full_size_is_permutation():
    data = tasks.generate(spec())["train"]
    out = tasks.fewshot_subsample(data, len(data), seed=1)
    assert sorted(out, key=lambda e: (e.tokens, e.label)) == \
        sorted(data, key=lambda e: (e.tokens, e.label))


def test_fewshot_idempotent_on_result_set():
    data = tasks.generate(spec())["train"]
    once = tasks.fewshot_subsample(data, 16, seed=5)
    twice = tasks.fewshot_subsample(once, 16, seed=5)
    assert set(once) == set(twice)


def test_fewshot_bounds():
    data = tasks.generate(spec())["train"]
    with pytest.raises(DataError):
        tasks.fewshot_subsample(data, 0, seed=1)
    with pytest.raises(DataError):
        tasks.fewshot_subsample(data, len(data) + 1, seed=1)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_accuracy_properties(labels):
    assert tasks.accuracy(labels, labels) == 1.0
    wrong = [l + 1 for l in labels]
    assert tasks.accuracy(wrong, labels) == 0.0


def test_accuracy_fraction_and_mismatch():
    assert tasks.accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75
    with pytest.raises(DataError):
        tasks.accuracy([1], [1, 0])
    with pytest.raises(DataError):
        tasks.accuracy([], [])

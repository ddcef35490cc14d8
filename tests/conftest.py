"""Shared fixtures: a tiny pretrained backbone and task splits, built once."""

import xprompt  # before numpy, so the suite gets the one-thread BLAS defaults users get

import pytest

from xprompt import backbone as bbm
from xprompt import tasks


MICRO_CFG = bbm.BackboneConfig(vocab_size=16, embed_dim=16, layers=1, heads=2,
                               max_seq_len=32, num_classes=2, seed=3)

MICRO_SPEC = tasks.TaskSpec(name="micro-majority", kind="majority_class",
                            vocab_size=16, num_classes=2, seq_len_min=5,
                            seq_len_max=9, train_size=48, dev_size=32, seed=11)


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance criteria's lines, which output capture would hide."""
    from support import CRITERIA
    for line in CRITERIA:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def micro_data():
    return tasks.generate(MICRO_SPEC)


@pytest.fixture(scope="session")
def micro_backbone(micro_data):
    bb = bbm.init_backbone(MICRO_CFG)
    corpus = tasks.pretrain_corpus(micro_data["train"])
    return bbm.pretrain(bb, corpus, steps=80, lr=1e-2)


@pytest.fixture(scope="session")
def raw_micro_backbone():
    """Frozen at init, no pretraining; for tests that only need a frozen net."""
    bb = bbm.init_backbone(MICRO_CFG)
    bb.freeze()
    return bb

import threading
import time
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

from stilab.corpus import SyntheticCorpus, SyntheticCorpusSpec, generate_synthetic_corpus
from stilab.trainer import TrainConfig
from stilab.workflow import TrainedRun, train_on_corpus

settings.register_profile(
    "stilab",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("stilab")

ACCEPTANCE_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class TimedRun:
    corpus: SyntheticCorpus
    run: TrainedRun
    seconds: float


# How long a test's leftover threads get to finish before it fails.
THREAD_JOIN_SECONDS = 1.0


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread alive that was not alive at its
    start, once the new threads have had a short join. An exception a
    thread does not handle already fails the test, through pytest's
    unhandled-thread-exception warning and ``filterwarnings = error``."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_JOIN_SECONDS
    started = [thread for thread in threading.enumerate() if thread not in before]
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = [thread.name for thread in started if thread.is_alive()]
    if alive:
        pytest.fail(f"the test left threads alive: {alive}")


@pytest.fixture(scope="session")
def default_corpora() -> dict[int, SyntheticCorpus]:
    """The default synthetic corpus at each acceptance seed."""
    return {
        seed: generate_synthetic_corpus(SyntheticCorpusSpec(seed=seed))
        for seed in ACCEPTANCE_SEEDS
    }


@pytest.fixture(scope="session")
def trained_default_runs(default_corpora) -> dict[int, TimedRun]:
    """Full 30-epoch trainings (attributes on, both interaction stages on),
    one per acceptance seed. Shared across tests to keep the suite fast."""
    runs = {}
    for seed, corpus in default_corpora.items():
        start = time.perf_counter()
        run = train_on_corpus(corpus, TrainConfig.desk_scale(epochs=30, seed=seed))
        runs[seed] = TimedRun(corpus=corpus, run=run, seconds=time.perf_counter() - start)
    return runs


@pytest.fixture(scope="session")
def tiny_corpus() -> SyntheticCorpus:
    """A few-second corpus for plumbing tests."""
    return generate_synthetic_corpus(
        SyntheticCorpusSpec(
            num_concepts=8,
            seen_classes=4,
            unseen_classes=2,
            videos_per_class=6,
            frames=4,
            patches_per_frame=6,
            dim=16,
            noise_scale=0.1,
            seed=11,
        )
    )


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory that property-based tests reuse across their examples."""
    return tmp_path_factory.mktemp("fuzz")

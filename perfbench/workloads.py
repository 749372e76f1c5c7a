"""The four benchmark workloads: set-up, one measured operation, and checks.

Each workload pins the published or recorded values its output must
reproduce in `EXPECTED`; a run with any mismatch reports no timing.  Only
`eval` draws inputs from the seed: the degree fixes the inputs of the
other three.
"""

from __future__ import annotations

import hashlib
import io
import random
from collections import Counter
from pathlib import Path


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mismatches(observed: dict, expected: dict) -> list[str]:
    """One message per expected key whose observed value differs."""
    return [
        f"{key}: expected {want!r}, got {observed.get(key)!r}"
        for key, want in expected.items()
        if observed.get(key) != want
    ]


# The published degree-6 group: elementary divisors {2: 32, 4: 6, 8: 1} and
# 2545 words with a nonzero value; the digest pins the saved table text.
TABLE6 = {
    "divisors": {2: 32, 4: 6, 8: 1},
    "nonzero_words": 2545,
    "table_sha256": "1a5c21f01a0214c38fbdafa5921e0fb49c91d40a894509d77fdb47adb41493b5",
}


def observe_table(table, path: Path) -> dict:
    return {
        "divisors": dict(Counter(table.moduli)),
        "nonzero_words": len(table),
        "table_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


class Workload:
    name = ""
    # What the median operation time is called in the workload's own terms.
    op_label = ""
    EXPECTED: dict = {}

    def __init__(self, expected: dict | None = None):
        self.expected = {**self.EXPECTED, **(expected or {})}
        self.digests: dict[str, str] = {}

    def setup(self, api, seed: int, workdir: Path) -> None:
        """Prepare inputs; timed and repeated, so it must be idempotent."""

    def setup_failures(self, api) -> list[str]:
        return []

    def op(self, api):
        raise NotImplementedError

    def observe(self, api, result) -> dict:
        """The facts of one operation's output that `EXPECTED` pins."""
        raise NotImplementedError

    def check(self, api, result) -> list[str]:
        observed = self.observe(api, result)
        self.digests.update((k, v) for k, v in observed.items() if k.endswith("_sha256"))
        return mismatches(observed, self.expected)

    def final_checks(self, api) -> tuple[int, list[str]]:
        """Checks made once after measuring: (operations attempted, failures)."""
        return 0, []


class _NeedsTable6(Workload):
    """Set-up builds the degree-6 table, saves it and loads it back."""

    def setup(self, api, seed, workdir):
        self.path = workdir / "table6.txt"
        api.save_table(api.build_table(6), self.path)
        self.table = api.load_table(self.path)

    def setup_failures(self, api):
        observed = observe_table(self.table, self.path)
        self.digests["table_sha256"] = observed["table_sha256"]
        return mismatches(observed, TABLE6)


class Table6(Workload):
    """`build_table(6)` then `save_table`, as `polyak table --degree 6 --out F`."""

    name = "table6"
    op_label = "table_s"
    EXPECTED = TABLE6

    def setup(self, api, seed, workdir):
        self.path = workdir / "table6.txt"

    def op(self, api):
        table = api.build_table(6)
        api.save_table(table, self.path)
        return table

    def observe(self, api, table):
        return observe_table(table, self.path)


class Present7(Workload):
    """`build_presentation(7)` then `.matrix()`: the degree-7 SNF input."""

    name = "present7"
    op_label = "present_s"
    EXPECTED = {
        "generators": 51870,
        "raw_counts": (358644, 128926),
        "relations": 176591,
        "nnz": 626173,
    }

    def op(self, api):
        pres = api.build_presentation(7)
        return pres, pres.matrix()

    def observe(self, api, result):
        pres, matrix = result
        return {
            "generators": len(pres.generators),
            "raw_counts": tuple(pres.raw_counts),
            "relations": len(pres.relations),
            "nnz": matrix.nnz,
        }


class Classify6(_NeedsTable6):
    """`classify(6, table6)` with the default search budget."""

    name = "classify6"
    op_label = "classify_s"
    EXPECTED = {
        "classes": 512,
        "unresolved": 9,
        "report_sha256": "b8eac0c5c96c4e7b5fb37acee74fd2f6d54f79dc5068e23933de9827baa22935",
        "replay_failures": 0,
    }

    def op(self, api):
        return api.classify(6, self.table)

    def observe(self, api, c):
        buf = io.StringIO()
        api.report(c, buf)
        replay_failures = 0
        for cls in c.classes:
            for w in cls.words:
                x = w
                for move in c.trace(w):
                    x = api.apply_move(x, move)
                replay_failures += x != cls.root
        return {
            "classes": len(c.classes),
            "unresolved": len(c.unresolved),
            "report_sha256": sha256_text(buf.getvalue()),
            "replay_failures": replay_failures,
        }


# Ranks cycle in this order.  The doubled 8 puts the median inside the rank-8
# band and the 99th percentile inside the rank-11 band, away from a band
# edge; ranks 9-11 take `evaluate`'s Counter branch (rank > 8).
EVAL_RANKS = (6, 7, 8, 8, 9, 10, 11)
EVAL_POOL = 300 * len(EVAL_RANKS)
EVAL_MOVE_CHECKS = 6 * len(EVAL_RANKS)
EVAL_REFERENCE_SEED = 20120901


def random_words(api, rng: random.Random, count: int) -> list:
    words = []
    for i in range(count):
        letters = list(range(EVAL_RANKS[i % len(EVAL_RANKS)])) * 2
        rng.shuffle(letters)
        words.append(api.canonicalize(letters))
    return words


def values_digest(words, values) -> str:
    return sha256_text("".join(f"{w} {' '.join(map(str, v))}\n" for w, v in zip(words, values)))


class Eval(_NeedsTable6):
    """`evaluate(table6, w)` over a seeded pool of words of rank 6-11."""

    name = "eval"
    op_label = "eval_word_p50"
    EXPECTED = {
        # Values of a fixed reference sample, independent of the run's seed.
        "reference_sha256": "799662dd72cc675c354987f04d6398f95c3431192dd00a4285b4194afa1c195d",
        "move_mismatches": 0,
    }

    def setup(self, api, seed, workdir):
        super().setup(api, seed, workdir)
        self.seed = seed
        self.pool = random_words(api, random.Random(seed), EVAL_POOL)
        self.values: list = []
        self.calls = 0

    def op(self, api):
        i = self.calls % EVAL_POOL
        self.calls += 1
        return i, api.evaluate(self.table, self.pool[i])

    def check(self, api, result):
        # The first pass records each value; later passes must repeat it.
        i, value = result
        if len(self.values) < EVAL_POOL:
            self.values.append(value)
        elif self.values[i] != value:
            return [f"{self.pool[i]}: value changed between passes"]
        return []

    def final_checks(self, api):
        evaluate = api.evaluate
        reference = random_words(api, random.Random(EVAL_REFERENCE_SEED), 10 * len(EVAL_RANKS))
        ref_digest = values_digest(reference, [evaluate(self.table, w) for w in reference])
        rng = random.Random(self.seed)
        attempted = 1
        move_mismatches = 0
        for w in self.pool[:EVAL_MOVE_CHECKS]:
            # rank_cap = rank: only reductions and exchanges, never expansions.
            moves = api.neighbors(w, w.rank)
            if not moves:
                continue
            image, _ = rng.choice(moves)
            attempted += 1
            move_mismatches += evaluate(self.table, image) != evaluate(self.table, w)
        self.digests["reference_sha256"] = ref_digest
        self.digests["pool_sha256"] = values_digest(self.pool, self.values)
        observed = {"reference_sha256": ref_digest, "move_mismatches": move_mismatches}
        return attempted, mismatches(observed, self.expected)


WORKLOADS = {wl.name: wl for wl in (Table6, Present7, Classify6, Eval)}

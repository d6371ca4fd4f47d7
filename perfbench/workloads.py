"""Seeded request lists for the three workloads.

A workload is an endless series of blocks and a block is a list of argv
lists for `scottlab`.  Every block of a workload has the same verb mix.

The in-process blocks are built so that their latency quantiles fall
inside tight clusters, not between them, and so do not jump with the
seed or with the host's speed:

* most requests are cheap (`boundary`; `ep --check` and `stage`), so
  the median falls inside their cluster;
* each large request has a size of its own (CLUSTER), chosen so that
  every large request costs about the same (about 0.3 s on a 2-vCPU
  Xeon VM), and they make up a quarter of the block, so the p90 falls
  inside their cluster;
* the seed moves each large size by up to JITTER, draws the cheap
  requests' sizes from the whole range and orders each block.

Which requests use --format json follows a fixed cycle, a different
third each block.  cold_cli requests come from the seed alone: they are
small, so interpreter start sets their cost.
"""

from __future__ import annotations

import random
from typing import Iterator

WORKLOADS = ("cold_cli", "window_sweep", "stage_tower")
COMPOSITE = ("lambda", "lambda_prime", "lambda_hat_prime", "v")
BOUNDARY_CPOS = ("lambda_hat_prime", "v")
SCHEMES = ("standard", "alternative")
JITTER = 0.03

# the sizes of the large requests: O(w^2) window scans, O(d^3) stage work
CLUSTER = {
    "adjunction": {"lambda": 150, "lambda_prime": 145, "lambda_hat_prime": 99, "v": 100},
    "funcspace": 93,
    "table8": 58,
    "pipeline": 56,
    "paths": 150,
    "limit": 152,
    "diagram": {"standard": 92, "alternative": 101},
}
# (lo, hi) ranges of the cheap requests' sizes
CHEAP = {False: {"window": (40, 160), "depth": (40, 200)}, True: {"window": (2, 8), "depth": (2, 12)}}
SMOKE_SIZE = 4      # every large request in --smoke runs


class Draws:
    """The seeded choices of one run, block by block."""

    def __init__(self, rng: random.Random, smoke: bool):
        self.rng = rng
        self.smoke = smoke
        self.block = 0

    def size(self, center: int) -> str:
        """A large request's size: its center, moved by the seeded jitter."""
        if self.smoke:
            return str(SMOKE_SIZE)
        return str(round(center * (1 + self.rng.uniform(-JITTER, JITTER))))

    def cheap(self, kind: str) -> str:
        return str(self.rng.randint(*CHEAP[self.smoke][kind]))

    def json_thirds(self, block: list[list[str]]) -> list[list[str]]:
        """Give every third request --format json, a different third each block; shuffle."""
        out = [argv + ["--format", "json"] if (i + self.block) % 3 == 0 else argv
               for i, argv in enumerate(block)]
        self.rng.shuffle(out)
        return out


# -- window_sweep ------------------------------------------------------------


def window_block(d: Draws) -> list[list[str]]:
    block = [["adjunction", "--cpo", cpo, "--window", d.size(w)] for cpo, w in CLUSTER["adjunction"].items()]
    # two of the four orders per block, in turn
    for cpo in (COMPOSITE[2 * d.block % 4], COMPOSITE[(2 * d.block + 1) % 4]):
        block.append(["funcspace", "--cpo", cpo, "--window", d.size(CLUSTER["funcspace"]), "--table"])
    block.append(["table8", "--window", d.size(CLUSTER["table8"])])
    block.append(["pipeline", "--window", d.size(CLUSTER["pipeline"])])
    for cpo in BOUNDARY_CPOS * 11:
        block.append(["boundary", "--cpo", cpo, "--window", d.cheap("window")])
    return d.json_thirds(block)


# -- stage_tower -------------------------------------------------------------


def stage_block(d: Draws) -> list[list[str]]:
    block = []
    for scheme in SCHEMES:
        block.append(["paths", "--scheme", scheme, "--depth", d.size(CLUSTER["paths"])])
        block.append(["limit", "--scheme", scheme, "--depth", d.size(CLUSTER["limit"])])
        block.append(["diagram", "--scheme", scheme, "--depth", d.size(CLUSTER["diagram"][scheme])])
    for scheme in SCHEMES * 6:
        block.append(["ep", "--scheme", scheme, "--n", d.cheap("depth"), "--check"])
    for _ in range(12):
        block.append(["stage", "--n", d.cheap("depth")])
    return d.json_thirds(block)


# -- cold_cli ----------------------------------------------------------------

# catalogue orders and the label forms each understands
LABELS = {
    "phi": lambda r: r.choice([str(r.randint(0, 20)), "inf", f"{r.randint(0, 20)}'"]),
    "theta": lambda r: r.choice([str(r.randint(0, 20)), "inf"]),
    "lambda_prime": lambda r: r.choice([str(r.randint(0, 20)), "inf", "inf'", f"{r.randint(0, 20)}'"]),
    "v": lambda r: r.choice(["-inf", f"-{r.randint(1, 20)}", "m'", f"+{r.randint(1, 20)}", "+inf"]),
}
CATALOGUE = ("two", "phi", "theta", "omega", "omega_opp", "omega_prime", "omega_prime_opp",
             "lambda", "lambda_prime", "lambda_hat_prime", "xi", "xi_opp", "v")
FPT_CPOS = ("two", "phi", "theta", "lambda", "lambda_prime", "lambda_hat_prime", "v")
KINDS = ("I", "II", "III", "IV")


def random_word(rng: random.Random) -> list[str]:
    """Atoms of a random order word: w, w* or a finite chain 1..3."""
    return [rng.choice(["w", "w*", str(rng.randint(1, 3))]) for _ in range(rng.randint(1, 4))]


def iso_variant(rng: random.Random, atoms: list[str]) -> list[str]:
    """The same order written differently, by one rewrite run backwards."""
    out = list(atoms)
    i = rng.randrange(len(out))
    a = out[i]
    if a == "w":
        out.insert(i, str(rng.randint(1, 3)))        # k + w -> w
    elif a == "w*":
        out.insert(i + 1, str(rng.randint(1, 3)))    # w* + k -> w*
    elif int(a) > 1:
        k = rng.randint(1, int(a) - 1)               # j + k -> (j + k)
        out[i:i + 1] = [str(k), str(int(a) - k)]
    else:
        out.insert(i, "w")                           # not isomorphic in general
    return out


def _literal(rng: random.Random) -> str:
    """A string literal of any of the four families."""
    k = rng.randint(0, 6)
    return rng.choice(["0" * k + "11...", "000...", "...00" + "1" * k, "...111"])


def _recipe(rng: random.Random) -> str:
    return f"{rng.choice(KINDS)}:{rng.randint(1, 6)}"


def cold_block(d: Draws) -> list[list[str]]:
    """Every verb and subverb, plus extra random words, at README sizes."""
    r = d.rng
    cpo_l = r.choice(sorted(LABELS))
    cpo_n = r.choice(sorted(LABELS))
    word_b = random_word(r)
    word_c = random_word(r)
    recipe = _recipe(r)
    index = recipe.split(":")[1]
    n = r.randint(int(index) + 1, 12)
    pos = r.randint(1, 6)
    block = [
        ["cpo", "--cpo", r.choice(CATALOGUE), "--window", str(r.randint(1, 20))],
        ["normalize", "--word", "+".join(random_word(r))],
        ["normalize", "--word", "+".join(random_word(r))],
        ["iso", "--a", "+".join(word_b), "--b", "+".join(iso_variant(r, word_b))],
        ["iso", "--a", "+".join(word_c), "--b", "+".join(random_word(r))],
        # --x=-3 keeps argparse from reading a negative label as an option
        ["compare", "--cpo", cpo_l, f"--x={LABELS[cpo_l](r)}", f"--y={LABELS[cpo_l](r)}"],
        ["neighbors", "--cpo", cpo_n, f"--x={LABELS[cpo_n](r)}"],
        ["stage", "--n", str(r.randint(1, 12))],
        ["funcs", "--m", str(r.randint(1, 10))],
        ["mu", "--map", r.choice(["00", "01", "10", "11"])],
        ["ep", "--scheme", r.choice(SCHEMES), "--n", str(r.randint(1, 12))] + r.choice([[], ["--check"]]),
        ["paths", "--scheme", r.choice(SCHEMES), "--depth", str(r.randint(2, 12))],
        ["limit", "--scheme", r.choice(SCHEMES), "--depth", str(r.randint(2, 12))],
        ["diagram", "--scheme", r.choice(SCHEMES), "--depth", str(r.randint(2, 12))],
        ["funcspace", "--cpo", r.choice(COMPOSITE), "--window", str(r.randint(1, 20)), "--table"],
        ["funcspace", "--word", "+".join(random_word(r))],
        ["fpt", "--cpo", r.choice(FPT_CPOS), "--mu", r.choice(["const0", "const1", "id"])],
        ["string", "realize", "--recipe", _recipe(r)],
        ["string", "approx", "--recipe", recipe, "--n", str(n)],
        ["string", "limit", "--recipe", recipe, "--pos", str(pos), "--depth", str(pos + int(index) + r.randint(0, 6))],
        ["string", "opp", "--x", _literal(r)],
        ["string", "opp-pair", "--pair", r.choice(["(000..., ...111)", "(...000, 111...)"])],
        ["string", "lr", "--recipe", _recipe(r)],
        ["string", "lr-pair", "--a", _recipe(r), "--b", _recipe(r)],
        ["string", "classify", "--x", _literal(r)],
        ["adjunction", "--cpo", r.choice(COMPOSITE), "--window", str(r.randint(1, 20))],
        ["boundary", "--cpo", r.choice(BOUNDARY_CPOS), "--window", str(r.randint(1, 20))],
        ["decompose", "--cpo", r.choice(BOUNDARY_CPOS)],
        ["lcr", "forward", "--x", _literal(r)],
        ["lcr", "backward", "--pair", r.choice(["(...000, 111...)", "(...0011, 111...)", "(...000, 0011...)"]),
         "--endpoint", r.choice(["L", "R"])],
        ["replicate"] + r.choice([[], ["--pair", "(000..., ...111)"]]),
    ]
    # table8 and pipeline, three each, form a cluster above the interpreter-start one, so the
    # p90 falls inside it and a few slow starts do not move it
    block += [[verb, "--window", str(r.randint(14, 20))] for verb in ("table8", "pipeline") * 3]
    return d.json_thirds(block)


BLOCKS = {"cold_cli": cold_block, "window_sweep": window_block, "stage_tower": stage_block}


def blocks(workload: str, seed: int, smoke: bool = False) -> Iterator[list[list[str]]]:
    """The workload's blocks, endlessly, from the seed alone."""
    draws = Draws(random.Random(f"{workload}:{seed}"), smoke)
    while True:
        yield BLOCKS[workload](draws)
        draws.block += 1

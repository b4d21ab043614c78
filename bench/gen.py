"""Seeded inputs for the benchmark, with their expected values.

Corpus problems are built answer-first: the unknowns are drawn as
regular numbers and the coefficients are derived from them, so every
traced value is finitely writable and the expected values come from the
plain-``Fraction`` chain below, not from sexakit.  The reciprocal table
holds long regular numbers 2^a*3^b*5^c of an exact number of digit
groups, plus irregular ones whose smallest prime beyond 5 is known.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

import oracle

# -- corpus problems ----------------------------------------------------------

#: Share of generated problems that carry exactly one wrong expectation.
MUTATED_SHARE = 0.1


@dataclass
class Problem:
    """One corpus problem and the report rows replay must produce."""

    id: str
    procedure: str
    givens: list[tuple[str, F, str]] = field(default_factory=list)
    params: list[tuple[str, F]] = field(default_factory=list)
    steps: list[tuple[str, F]] = field(default_factory=list)
    answers: list[tuple[str, F, str]] = field(default_factory=list)
    # Row index (steps first, then answers) and the wrong value written there.
    mutated: int | None = None
    wrong: F | None = None

    def written(self) -> tuple[list[tuple[str, F]], list[tuple[str, F, str]]]:
        """Expected steps and answers as the corpus file states them."""
        def value(i: int, v: F) -> F:
            return self.wrong if i == self.mutated else v

        k = len(self.steps)
        return ([(label, value(i, v))
                 for i, (label, v) in enumerate(self.steps)],
                [(name, value(k + j, v), unit)
                 for j, (name, v, unit) in enumerate(self.answers)])

    def rows(self) -> list[tuple[str, str, str, str]]:
        """(status, label, expected text, got text) in report order."""
        steps, answers = self.written()
        out = [("MATCH" if w == v else "MISMATCH", label, oracle.render(w),
                oracle.render(v))
               for (label, v), (_, w) in zip(self.steps, steps)]
        out += [("MATCH" if w == v else "MISMATCH", f"answer:{name}",
                 oracle.quantity(w, unit), oracle.quantity(v, unit))
                for (name, v, unit), (_, w, _) in zip(self.answers, answers)]
        return out

    def passes(self) -> bool:
        return self.mutated is None


@functools.cache
def _regulars(max_groups: int) -> tuple[F, ...]:
    return tuple(
        x for a in range(-6, 9) for b in range(-4, 6) for c in range(-3, 5)
        if oracle.groups(oracle.render(x := F(2) ** a * F(3) ** b * F(5) ** c))
        <= max_groups)


def regular(rng: random.Random, max_groups: int = 6) -> F:
    """A positive regular number of 1 to ``max_groups`` digit groups."""
    return rng.choice(_regulars(max_groups))


def _quadratic(rng: random.Random, with_volume: bool) -> Problem:
    p = Problem("", "quadratic")
    u, a = regular(rng, 3), regular(rng, 3)
    if with_volume:
        # S = z*(u + v)/2 must be regular for x = V/S.  Draw u + v regular
        # and keep the draw when z is regular too.
        excess, share, rule = F(1, 2), F(1, 12), []
        if rng.random() < 0.5:
            excess = rng.choice((F(1, 3), F(1, 2), F(1)))
            share = rng.choice((F(1, 12), F(1, 6), F(1, 4)))
            rule = [("excess", excess), ("excess_share", share)]
        while True:
            breadths = regular(rng, 3)
            u = 2 * (breadths - excess) / 3
            v = u / 2 + excess
            z = 12 * (excess + share * (u - v))
            if u >= v and z > 0 and oracle.is_regular(z):
                break
        s, x = z * breadths / 2, regular(rng, 2)
        unit = rng.choice(("volume-sar", "sar60", "susi"))
        p.givens.append(("V", x * s / oracle.UNIT_SCALE.get(unit, 1), unit))
    b = a * u * F(rng.randint(1, 59), 60)
    c = a * u * u - b * u
    p.params += [("A", a), ("B", b), ("C", c)]
    half_b = b / 2
    p.steps += [("half_B", half_b), ("half_B_sq", half_b * half_b),
                ("AC", a * c), ("radicand", half_b * half_b + a * c),
                ("root", a * u - half_b), ("root_plus", a * u), ("u", u)]
    p.answers.append(("u", u, "nindan"))
    if with_volume:
        p.params += rule
        p.steps += [("v", v), ("z", z), ("S", s), ("x", x)]
        p.answers += [("v", v, "nindan"), ("z", z, "kus"),
                      ("S", s, "nindan-kus"), ("x", x, "nindan")]
    return p


def _rect_canal(rng: random.Random) -> Problem:
    kind = rng.random()
    if kind < 0.45:                       # the tablet's family: x, y = 3w, 2w
        w = regular(rng, 2)
        x, y, t = 3 * w, 2 * w, F(13)
    elif kind < 0.95:
        y, d = regular(rng, 2), regular(rng, 2)
        x, t = y + d, regular(rng, 2)
    else:                                 # zero difference, no reciprocals
        x = y = regular(rng, 2)
        t = regular(rng, 2)
    d, f = x - y, regular(rng, 2)
    z = f * d
    squares = x * x + y * y
    rhs = z * squares + x * y * (z + 1) + squares / t
    p = Problem("", "rect-canal-system",
                params=[("diff", d), ("depth_factor", f), ("thirteenth", t),
                        ("rhs", rhs)])
    rhs_scaled, d_sq = rhs * t, d * d
    rhs_reduced = rhs_scaled - d_sq
    p.steps += [("rhs_scaled", rhs_scaled), ("diff_sq", d_sq),
                ("rhs_reduced", rhs_reduced)]
    if d:
        recip_z = 1 / (f * d)
        rhs_over_z = recip_z * rhs_reduced
        xy_rhs = rhs_over_z - d_sq * t
        z_term, pair_term = recip_z * t, recip_z * 2
        xy_coeff = 3 * t + z_term + pair_term
        p.steps += [("recip_diff", 1 / d), ("recip_depth_factor", 1 / f),
                    ("recip_z", recip_z), ("rhs_over_z", rhs_over_z),
                    ("diff_sq_check", d_sq), ("diff_sq_scaled", d_sq * t),
                    ("xy_rhs", xy_rhs), ("z_term", z_term),
                    ("pair_term", pair_term),
                    ("mixed_coeff", z_term + pair_term),
                    ("triple_thirteenth", 3 * t), ("xy_coeff", xy_coeff)]
    half_diff, half_sum = d / 2, (x + y) / 2
    p.steps += [("xy", x * y), ("half_diff", half_diff),
                ("half_diff_sq", half_diff * half_diff),
                ("radicand", half_sum * half_sum), ("half_sum", half_sum),
                ("x", x), ("y", y)]
    p.answers += [("x", x, "1"), ("y", y, "1"), ("z", z, "1")]
    return p


def _labor_depth(rng: random.Random) -> Problem:
    depth, width = regular(rng, 2), regular(rng, 2)
    workers, reach = regular(rng, 2), regular(rng, 2)
    constant = F(4, 5)
    p = Problem("", "labor-depth")
    if rng.random() < 0.5:
        while True:
            constant = regular(rng, 2)
            if constant <= 1:
                break
        p.params.append(("canal_constant", constant))
    section = depth * width
    per_worker = section * constant
    per_length = per_worker * workers
    total = per_length * reach
    unit = rng.choice(("volume-sar", "sar60", "susi"))
    p.givens += [("total_water", total / oracle.UNIT_SCALE.get(unit, 1), unit),
                 ("workers", workers, "workers"), ("width", width, "nindan")]
    p.params.insert(0, ("reach_length", reach))
    p.steps += [("recip_reach", 1 / reach), ("water_per_length", per_length),
                ("recip_workers", 1 / workers),
                ("water_per_worker", per_worker),
                ("recip_canal_constant", 1 / constant),
                ("cross_section", section), ("recip_width", 1 / width),
                ("depth", depth), ("water_depth", depth * constant)]
    p.answers += [("z", depth, "kus"), ("z_water", depth * constant, "kus")]
    return p


# Procedures in a fixed rotation, so every seed gets the same mix.
_FAMILIES = (
    lambda rng: _quadratic(rng, with_volume=False),
    lambda rng: _quadratic(rng, with_volume=True),
    _rect_canal,
    _labor_depth,
)


def corpus(seed: int, count: int) -> list[Problem]:
    """``count`` problems; a fixed share carries one wrong expectation."""
    rng = random.Random(f"corpus-{seed}")
    problems = []
    for i in range(count):
        p = _FAMILIES[i % len(_FAMILIES)](rng)
        p.id = f"gen.{i:05d}"
        problems.append(p)
    for p in rng.sample(problems, round(count * MUTATED_SHARE)):
        p.mutated = rng.randrange(len(p.steps) + len(p.answers))
        p.wrong = (p.steps + p.answers)[p.mutated][1] + F(1, 60)
    return problems


def write_corpus(problems: list[Problem]) -> str:
    """Corpus file text in sexakit's line format."""
    out = ["# Synthetic problems, generated answer-first."]
    for p in problems:
        out += ["", f"[problem {p.id}]", f"procedure = {p.procedure}"]
        out += [f"given {n} = {oracle.quantity(v, u)}" for n, v, u in p.givens]
        out += [f"param {n} = {oracle.render(v)}" for n, v in p.params]
        steps, answers = p.written()
        out += [f"expect step {label} = {oracle.render(v)} @ gen.{i}"
                for i, (label, v) in enumerate(steps, start=1)]
        out += [f"expect answer {name} = {oracle.quantity(v, unit)}"
                for name, v, unit in answers]
    return "\n".join(out) + "\n"


def read_corpus(text: str) -> list[Problem]:
    """The expectations of a corpus file, for a corpus that replays PASS."""
    problems = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[problem"):
            problems.append(Problem(line[len("[problem"):-1].strip(), ""))
        elif line.startswith("procedure"):
            problems[-1].procedure = line.split("=", 1)[1].strip()
        elif line.startswith("expect step"):
            label, _, rest = line[len("expect step"):].partition("=")
            literal = rest.split("@", 1)[0].strip()
            problems[-1].steps.append((label.strip(), oracle.parse(literal)))
        elif line.startswith("expect answer"):
            name, _, rest = line[len("expect answer"):].partition("=")
            literal, unit = rest.split()
            value, unit = oracle.normalized(oracle.parse(literal), unit)
            problems[-1].answers.append((name.strip(), value, unit))
    return problems


# -- reciprocal table ---------------------------------------------------------

#: Every IRREGULAR_EVERY-th table entry is irregular.
IRREGULAR_EVERY = 8
#: Smallest non-smooth prime of irregular entries: one bucket per power of
#: ten, up to about 10^5, so trial division stays bounded per entry.
PRIME_BUCKETS = {"p1e2": 100, "p1e3": 1_000, "p1e4": 10_000,
                 "p1e5": 100_000}


@dataclass
class Entry:
    label: str
    text: str              # the literal the table prints
    value: F
    scale: int             # 1, 2 or 4: the size class in units of n groups
    prime: int | None      # smallest prime beyond 5; None when regular
    recip_text: str | None = None


def regular_literal(rng: random.Random, digit_groups: int) -> F:
    """A regular number whose literal has exactly ``digit_groups`` groups.

    m = p1^e1 * p2^e2 with m in [60^(g-1), 60^g) and one of 2, 3, 5
    missing, so m is not divisible by 60; m / 60^f then has g groups.
    """
    g = digit_groups
    p1, p2 = rng.choice(PAIRS)
    low = 60 ** (g - 1)
    m = p1 ** rng.randint(0, int((g - 1) * math.log(60) / math.log(p1)))
    while m < low:
        m *= p2
    return F(m, 60 ** rng.randint(0, g - 1))


#: (p1, p2) pairs of regular_literal and even_literal.
PAIRS = ((2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (5, 3))


def even_literal(pair: tuple[int, int], digit_groups: int) -> F:
    """A regular number of exactly ``digit_groups`` groups, of one shape.

    As ``regular_literal``, with p1 raised to half the magnitude and the
    point in the middle, so that numbers of n, 2n and 4n groups built
    from the same pair take the same number of factor steps per group.
    """
    g = digit_groups
    p1, p2 = pair
    low = 60 ** (g - 1)
    m = p1 ** int((g - 1) * math.log(60) / math.log(p1) / 2)
    while m < low:
        m *= p2
    return F(m, 60 ** (g // 2))


def prime_in(rng: random.Random, top: int) -> int:
    while True:
        p = rng.randint(top // 2, top)
        if oracle.is_prime(p):
            return p


def irregular(rng: random.Random, digit_groups: int,
              top: int) -> tuple[F, int]:
    """A number whose smallest prime factor beyond 5 is p, drawn up to top.

    The cofactor q >= p is prime too, so finding p by trial division
    costs about p steps whatever the method, and no more.
    """
    p = prime_in(rng, top)
    q = prime_in(rng, 2 * p)          # drawn from [p, 2p]
    return regular_literal(rng, digit_groups) * p * q, p


def table(seed: int, n: int, count: int) -> list[Entry]:
    """Entries cycling through n, 2n and 4n digit groups."""
    rng = random.Random(f"table-{seed}")
    tops = list(PRIME_BUCKETS.values())
    entries = []
    for i in range(count):
        scale = (1, 2, 4)[i % 3]
        if i % IRREGULAR_EVERY == IRREGULAR_EVERY - 1:
            top = tops[(i // IRREGULAR_EVERY) % len(tops)]
            value, prime = irregular(rng, scale * n, top)
            entries.append(Entry(f"igi.{i}", oracle.render(value), value,
                                 scale, prime))
        else:
            value = regular_literal(rng, scale * n)
            entries.append(Entry(f"igi.{i}", oracle.render(value), value,
                                 scale, None, oracle.render(1 / value)))
    return entries

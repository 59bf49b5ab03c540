"""Workload inputs and the checks on their outputs.

A workload is a list of items.  Each item has a stable key (used to look up
the reference output), a zero-argument callable that runs it and returns its
canonical output text, and optional closed-form checks that do not rely on
the reference.

The three sweeps are fixed lists in table order.  The cli stream is a fixed
set of small requests in an order drawn from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable

WORKLOADS = ("cohomology", "airy", "hopf", "cli")

# Top order per cohomology space.  Cut from the full n <= 5 / toprec n <= 7
# sweep so that one cold sweep takes a few seconds, while keeping both the
# full/reg half (almost all matrix_rank) and the toprec half (graph layers).
COHOMOLOGY_TOP = {"full": 4, "reg": 5, "toprec": 6}
AIRY_MAX_EULER = 6
HOPF_AXIOMS = (("assoc", 5), ("coassoc", 6), ("compat", 6), ("counit", 6), ("antipode", 6))
HOPF_CORRELATOR_TOP = 7

CLI_POOL_SEED = 0
CLI_PER_KIND = 125


@dataclass
class Item:
    key: str
    run: Callable[[], str]
    # Closed-form checks: each returns None when it holds, else a message.
    # They run after the timed loop, given the item's output.
    checks: list[Callable[[str], str | None]] = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _expect(want: str) -> Callable[[str], str | None]:
    return lambda got: None if got == want else f"expected {want!r}, got {got!r}"


# --- cohomology -------------------------------------------------------------


def _graph_count_check(n: int, g: int) -> Callable[[str], str | None]:
    def check(_output: str) -> str | None:
        from lrq.loopgraphs import enumerate_graphs

        got = len(enumerate_graphs(n, g))
        want = catalan(n) * comb(n, g)
        return None if got == want else f"{got} graphs of ({n},{g}), expected {want}"

    return check


def reg_closed_form(n: int, g: int) -> int:
    """dim H^(n,g) of the regular complex: Catalan(n) at g = ceil(n/3) when
    n mod 3 != 1, else 0 (Kozlov's independence complex of a path)."""
    if n % 3 != 1 and g == -(-n // 3):
        return catalan(n)
    return 0


# Items call lrq's functions through their modules at run time, so that a
# tracer installed after the items are made still sees the calls.


def cohomology_items() -> list[Item]:
    from lrq import complexes

    items = []
    top = max(COHOMOLOGY_TOP.values())
    for n in range(top + 1):
        for g in range(n + 1):
            for space in ("full", "reg", "toprec"):
                if n > COHOMOLOGY_TOP[space]:
                    continue
                checks = []
                if space == "full":
                    checks = [_expect("1" if (n, g) == (0, 0) else "0")]
                elif space == "reg":
                    checks = [_expect(str(reg_closed_form(n, g)))]
                if space != "toprec":
                    checks.append(_graph_count_check(n, g))
                items.append(Item(
                    f"cohomology {n} {g} {space}",
                    lambda n=n, g=g, s=space: str(complexes.cohomology_dim(n, g, s)),
                    checks,
                ))
    return items


# --- airy -------------------------------------------------------------------


def airy_pairs(max_euler: int) -> list[tuple[int, int]]:
    """Every stable (g, k) with 2g - 2 + k <= max_euler, by 2g - 2 + k then g.

    This is scripts/airy_table.py's order, which however skips the k = 1
    pairs; they are included here in their place.
    """
    out = []
    for chi in range(1, max_euler + 1):
        for g in range(chi // 2 + 2):
            k = chi + 2 - 2 * g
            if k >= 1:
                out.append((g, k))
    return out


def airy_items() -> list[Item]:
    from lrq import airy

    items = []
    for g, k in airy_pairs(AIRY_MAX_EULER):
        checks = [_expect("1/16 * p^-4")] if (g, k) == (1, 1) else []
        items.append(Item(
            f"airy {g} {k}", lambda g=g, k=k: str(airy.airy_correlator(g, k)), checks
        ))
    return items


# --- hopf -------------------------------------------------------------------


def hopf_items() -> list[Item]:
    from lrq import hopfops, subalgebras

    def axiom(name: str, m: int) -> str:
        bad = hopfops.check_axiom(name, m)
        return "pass" if bad is None else "counterexample: " + ", ".join(map(str, bad))

    items = [
        Item(f"axiom {name} {m}", lambda a=name, m=m: axiom(a, m), [_expect("pass")])
        for name, m in HOPF_AXIOMS
    ]
    items += [
        Item(f"correlator {n}", lambda n=n: str(subalgebras.full_correlator(n)))
        for n in range(HOPF_CORRELATOR_TOP + 1)
    ]
    return items


# --- cli --------------------------------------------------------------------


def _shape(rng: random.Random, n: int):
    """A uniform-split random planar binary tree with n internal vertices."""
    if n == 0:
        return None
    p = rng.randrange(n)
    return (_shape(rng, p), _shape(rng, n - 1 - p))


def _render(shape, looped: set[int], offset: int = 0) -> tuple[str, int]:
    """Print a shape with the vertices in the given slots looped."""
    if shape is None:
        return "|", 0
    left, p = _render(shape[0], looped, offset)
    right, q = _render(shape[1], looped, offset + p + 1)
    mark = "o" if offset + p in looped else "v"
    return f"({left}{mark}{right})", p + q + 1


def _graph(rng: random.Random, n: int, loops: int, regular: bool = False) -> str:
    while True:
        slots = set(rng.sample(range(n), loops))
        if not regular or all(abs(a - b) >= 2 for a in slots for b in slots if a != b):
            return _render(_shape(rng, n), slots)[0]


def _word(rng: random.Random, n: int) -> str:
    while True:
        w = "".join(rng.choice("TL") for _ in range(n))
        if "LL" not in w:
            return w


def _perm(rng: random.Random, n: int) -> str:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return "[" + ",".join(map(str, w)) + "]"


def _graph_sum(rng: random.Random, terms: int) -> str:
    parts = []
    for i in range(terms):
        n = rng.randint(1, 4)
        g = _graph(rng, n, rng.randint(0, n))
        num, den = rng.randint(1, 9), rng.randint(1, 4)
        coeff = f"{num}/{den}*" if den > 1 else (f"{num}*" if num > 1 else "")
        sign = rng.choice("+-") if i else rng.choice(["", "-"])
        parts.append(f"{sign}{coeff}{g}")
    return " ".join(parts)


def _request(rng: random.Random, kind: str) -> list[str]:
    if kind == "product":
        if rng.random() < 0.5:
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            return ["product", _graph(rng, n, rng.randint(0, n)),
                    _graph(rng, m, rng.randint(0, m))]
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        return ["product", _graph(rng, n, rng.randint(0, (n + 1) // 2), True),
                _graph(rng, m, rng.randint(0, (m + 1) // 2), True), "--algebra", "reg"]
    if kind == "coproduct":
        n = rng.randint(2, 4)
        return ["coproduct", _graph(rng, n, rng.randint(0, n))]
    if kind == "antipode":
        n = rng.randint(2, 4)
        return ["antipode", _graph(rng, n, rng.randint(0, 1))]
    if kind == "dh":
        n = rng.randint(3, 5)
        return ["dh", _graph(rng, n, rng.randint(0, n - 1)), "--space",
                rng.choice(["full", "reg"])]
    if kind == "psi":
        return ["psi", _word(rng, rng.randint(3, 6))]
    if kind == "perm-product":
        return ["perm-product", _perm(rng, rng.randint(1, 4)), _perm(rng, rng.randint(1, 4))]
    if kind == "perm-coproduct":
        return ["perm-coproduct", _perm(rng, rng.randint(2, 9))]
    if kind == "parse-check":
        return ["parse-check", _graph_sum(rng, 6)]
    raise ValueError(kind)


CLI_KINDS = ("product", "coproduct", "antipode", "dh", "psi", "perm-product",
             "perm-coproduct", "parse-check")


def cli_pool() -> list[list[str]]:
    """The fixed set of requests: CLI_PER_KIND of each kind."""
    rng = random.Random(CLI_POOL_SEED)
    return [_request(rng, k) for k in CLI_KINDS for _ in range(CLI_PER_KIND)]


def cli_stream(seed: int) -> list[list[str]]:
    """The request stream: the fixed set in a seeded order, so every seed
    does the same work and only the order, and with it which requests find
    the memo caches warm, changes."""
    stream = cli_pool()
    random.Random(seed).shuffle(stream)
    return stream


def request_key(argv: list[str]) -> str:
    return "cli " + json.dumps(argv)


def run_request(argv: list[str]) -> str:
    """One CLI call; returns its exit code and stdout as the output text."""
    from lrq.cli import run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return f"{code}\n{buf.getvalue()}"


def _exit_ok(output: str) -> str | None:
    code = output.split("\n", 1)[0]
    return None if code == "0" else f"exit code {code}"


def request_item(argv: list[str]) -> Item:
    return Item(request_key(argv), lambda: run_request(argv), [_exit_ok])


def cli_items(seed: int) -> list[Item]:
    return [request_item(argv) for argv in cli_stream(seed)]


def items_for(workload: str, seed: int) -> list[Item]:
    if workload == "cohomology":
        return cohomology_items()
    if workload == "airy":
        return airy_items()
    if workload == "hopf":
        return hopf_items()
    if workload == "cli":
        return cli_items(seed)
    raise ValueError(f"unknown workload {workload!r}")


def reference_items() -> list[Item]:
    """Every item whose output the reference records: the three sweeps and
    the whole cli pool."""
    requests = [request_item(argv) for argv in cli_pool()]
    return cohomology_items() + airy_items() + hopf_items() + requests


def check(item: Item, output: str, reference: dict[str, str]) -> str | None:
    """None when the output matches the reference and every closed form."""
    want = reference.get(item.key)
    if want is None:
        return f"{item.key}: no reference output"
    if digest(output) != want:
        return f"{item.key}: output differs from the reference"
    for c in item.checks:
        msg = c(output)
        if msg is not None:
            return f"{item.key}: {msg}"
    return None

"""Tests of the benchmark itself.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def traced_child(workload: str, seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--trace-out", str(out)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TracerTest(unittest.TestCase):
    def test_traced_calls_match_cache_info(self):
        from lrq import cli, exprs, hopfops, subalgebras
        from lrq.complexes import cohomology_dim

        t = tracer.Tracer()
        t.install()
        try:
            before = t.cache_counts()
            hopfops.check_axiom("antipode", 4)
            subalgebras.full_correlator(5)
            subalgebras.delta_h_quotient_counterexample(3)
            cohomology_dim(4, 2, "toprec")
            workloads.run_request(["product", "(|o|)", "((|v|)o|)", "--algebra", "full"])
            workloads.run_request(["antipode", "((|o|)v(|v|))"])
            after = t.cache_counts()
        finally:
            t.uninstall()
        calls, _ = t.totals()
        for prefix, cache in tracer.MEMOIZED.items():
            looked_up = sum(after[cache]) - sum(before[cache])
            self.assertGreater(looked_up, 0, prefix)
            self.assertEqual(calls[t.names.index(prefix)], looked_up, prefix)
        # Uninstalling restores the import-time bindings.
        self.assertTrue(hasattr(hopfops.star_h, "cache_info"))
        self.assertIs(subalgebras.star_h, hopfops.star_h)
        cell = hopfops.star_h_sum.__closure__[0].cell_contents
        self.assertIs(cell, hopfops.star_h)
        self.assertIs(cli.parse, exprs.parse)
        self.assertFalse(hasattr(exprs.parse, "__wrapped__"))

    def test_items_made_before_install_are_traced(self):
        cohomology = next(i for i in workloads.cohomology_items()
                          if i.key == "cohomology 3 1 full")
        airy = next(i for i in workloads.airy_items() if i.key == "airy 1 1")
        t = tracer.Tracer()
        t.install()
        try:
            cohomology.run()
            airy.run()
        finally:
            t.uninstall()
        calls, _ = t.totals()
        self.assertEqual(calls[t.names.index("complexes.cohomology_dim")], 1)
        self.assertGreaterEqual(calls[t.names.index("airy.airy_correlator")], 1)
        self.assertGreater(calls[t.names.index(tracer.STATS_SPAN)], 0)

    def test_two_traced_runs_give_identical_counts(self):
        with tempfile.TemporaryDirectory() as tmp:
            first_run = traced_child("cli", 7, Path(tmp) / "a")
            second = traced_child("cli", 7, Path(tmp) / "b")["layers"]
            # The child fails the run if traced memoized calls and
            # cache_info() disagree anywhere in the full workload.
            self.assertEqual(first_run["failed"], 0, first_run["errors"])
            first = first_run["layers"]
            header = json.loads((Path(tmp) / "a.json").read_text())
            self.assertEqual(header["spans"], first["trace.spans"])
            self.assertEqual((Path(tmp) / "a.bin").stat().st_size, header["spans"] * 22)
        units = tracer.metric_units()
        counts = [m for m in first if units[m] == "count"]
        self.assertIn("permutations.split.calls", counts)
        self.assertGreater(first["exprs.parse.calls"], 0)
        for m in counts:
            self.assertEqual(first[m], second[m], m)


class HostSpeedTest(unittest.TestCase):
    def test_reference_seconds(self):
        probe = hostspeed.Probe()
        ref = hostspeed.REF_S
        # Slices (end time, duration) at 2x slowdown: one before the
        # interval, one inside it, one after.
        probe.ends = [1.0, 2.0, 3.0]
        probe.durations = [2 * ref, 2 * ref, 2 * ref]
        got = probe.reference_seconds(1.5, 2.5)
        self.assertAlmostEqual(got, (1.0 - 2 * ref) / 2)
        # No slice inside: the slices just before and after set the slowdown.
        probe.durations = [ref, 9 * ref, 3 * ref]
        self.assertAlmostEqual(probe.reference_seconds(2.2, 2.4), 0.2 / 6)


class ChecksTest(unittest.TestCase):
    def test_reference_and_closed_forms_catch_wrong_output(self):
        item = next(i for i in workloads.cohomology_items() if i.key == "cohomology 5 2 reg")
        reference = json.loads((HERE / "reference.json").read_text())
        self.assertIsNone(workloads.check(item, "42", reference))
        self.assertIsNotNone(workloads.check(item, "41", reference))
        # The closed form does not rely on the reference.
        self.assertIsNotNone(workloads.check(item, "41", {item.key: workloads.digest("41")}))

    def test_reg_closed_form(self):
        self.assertEqual([workloads.reg_closed_form(n, -(-n // 3)) for n in range(7)],
                         [1, 0, 2, 5, 0, 42, 132])

    def test_cli_stream_is_seeded(self):
        self.assertEqual(workloads.cli_stream(3), workloads.cli_stream(3))
        self.assertNotEqual(workloads.cli_stream(3), workloads.cli_stream(4))


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         tracer.metric_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "airy",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()

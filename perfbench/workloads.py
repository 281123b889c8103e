"""Seeded corpora, the three workloads and their correctness checks.

Every workload is a closed loop: one thread issues each call after the
previous one returns. A *pass* runs a workload once over its whole corpus;
the benchmark repeats passes until its measuring time is used up. All
panoramas are 1024x512, the library default (the CLI has no width flag).

  oracle_eval        120 clean rooms: render_signal -> postprocess -> evaluate_pair
  noisy_postprocess  the same rooms at three noise levels, postprocess only
  cli_roundtrip      panolayout synth -> postprocess -> evaluate, in-process,
                     one family's batch at a time
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SEEDS_PER_FAMILY = 20
NOISE_SIGMAS = (0.002, 0.005, 0.01)
CLI_NOISE_SIGMA = 0.002
IOU_FLOOR = 0.99


def import_panolayout():
    """Import panolayout from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "panolayout" / "__init__.py").is_file():
        raise ImportError(f"no panolayout package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import panolayout
    import panolayout.cli

    if Path(panolayout.__file__).resolve().parent != src / "panolayout":
        raise ImportError(f"panolayout imported from {panolayout.__file__}, not {src}")
    return panolayout


class CorrectnessError(Exception):
    """The program's output violates one of the benchmark's checks."""


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failures: Counter = field(default_factory=Counter)
    exact: int = 0  # scenes whose layout has truth's corner count
    postprocess_ms: list[float] = field(default_factory=list)
    evaluate_ms: list[float] = field(default_factory=list)
    iou2d: list[float] = field(default_factory=list)  # per attempted scene, failed = 0
    stage_s: dict[str, float] = field(default_factory=dict)
    digest: str = ""  # hash of every output, equal across passes and tracing
    files: dict[str, bytes] = field(default_factory=dict)


def fixture_ids(pl, seed: int, per_family: int = SEEDS_PER_FAMILY):
    """(family, fixture seed) for fixture seeds seed ... seed+per_family-1."""
    return [(fam, seed + k) for fam in pl.FIXTURE_FAMILIES for k in range(per_family)]


def noise_seed(seed: int, scene_index: int, sigma: float) -> int:
    return int(np.random.SeedSequence([seed, scene_index, round(sigma * 1e6)]).generate_state(1)[0])


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _corners(layout):
    return tuple((c.column, c.ceil_lat, c.floor_lat, c.kind.value) for c in layout.corners)


class OracleEval:
    name = "oracle_eval"

    def __init__(self, pl, per_family: int = SEEDS_PER_FAMILY):
        self.pl = pl
        self.per_family = per_family

    def setup(self, seed: int):
        return [
            (f"{fam}_{s:04d}", self.pl.make_fixture(fam, s))
            for fam, s in fixture_ids(self.pl, seed, self.per_family)
        ]

    def run_pass(self, rooms, tracer=None) -> PassResult:
        pl = self.pl
        res = PassResult(0.0, len(rooms))
        out = []
        t_pass = perf_counter()
        for scene, room in rooms:
            if tracer:
                tracer.scene = scene
            signal, truth = pl.render_signal(room)
            t0 = perf_counter()
            try:
                layout = pl.postprocess(signal)
                t1 = perf_counter()
                report = pl.evaluate_pair(layout, truth, regime="non_visible")
                t2 = perf_counter()
            except pl.RoomLayoutError as e:
                res.failures[type(e).__name__] += 1
                res.iou2d.append(0.0)
                out.append((scene, type(e).__name__))
                continue
            res.postprocess_ms.append(1e3 * (t1 - t0))
            res.evaluate_ms.append(1e3 * (t2 - t1))
            res.iou2d.append(report.iou2d)
            res.exact += len(layout.corners) == len(truth.corners)
            out.append((scene, _corners(layout), report.as_row(), len(truth.corners)))
        res.wall_s = perf_counter() - t_pass
        res.digest = _digest(out)
        for entry in out:
            if len(entry) == 2:
                raise CorrectnessError(f"oracle_eval {entry[0]}: {entry[1]} on a clean signal")
            scene, corners, row, n_truth = entry
            if len(corners) != n_truth:
                raise CorrectnessError(
                    f"oracle_eval {scene}: {len(corners)} corners, truth has {n_truth}"
                )
            if not row[0] > IOU_FLOOR:
                raise CorrectnessError(f"oracle_eval {scene}: iou2d {row[0]} <= {IOU_FLOOR}")
        return res


class NoisyPostprocess:
    name = "noisy_postprocess"

    def __init__(self, pl, per_family: int = SEEDS_PER_FAMILY):
        self.pl = pl
        self.per_family = per_family

    def setup(self, seed: int):
        pl = self.pl
        signals = []
        for idx, (fam, s) in enumerate(fixture_ids(pl, seed, self.per_family)):
            signal, truth = pl.render_signal(pl.make_fixture(fam, s))
            for sigma in NOISE_SIGMAS:
                noisy = pl.perturb_signal(signal, sigma, seed=noise_seed(seed, idx, sigma))
                signals.append((f"{fam}_{s:04d}@{sigma}", noisy, len(truth.corners)))
        return signals

    def run_pass(self, signals, tracer=None) -> PassResult:
        pl = self.pl
        res = PassResult(0.0, len(signals))
        out = []
        t_pass = perf_counter()
        for scene, signal, n_truth in signals:
            if tracer:
                tracer.scene = scene
            t0 = perf_counter()
            try:
                layout = pl.postprocess(signal)
            except pl.RoomLayoutError as e:
                res.postprocess_ms.append(1e3 * (perf_counter() - t0))
                res.failures[type(e).__name__] += 1
                out.append((scene, type(e).__name__))
                continue
            except Exception as e:  # any other error breaks postprocess's contract
                raise CorrectnessError(
                    f"noisy_postprocess {scene}: postprocess raised {type(e).__name__}: {e}"
                ) from e
            res.postprocess_ms.append(1e3 * (perf_counter() - t0))
            if not isinstance(layout, pl.VisibleLayout):
                raise CorrectnessError(
                    f"noisy_postprocess {scene}: postprocess returned {type(layout).__name__}"
                )
            res.exact += len(layout.corners) == n_truth
            out.append((scene, _corners(layout)))
        res.wall_s = perf_counter() - t_pass
        res.digest = _digest(out)
        return res


class _LineClock(io.TextIOBase):
    """Captures CLI output and timestamps the end of every line."""

    def __init__(self):
        self.times: list[float] = []
        self.text = io.StringIO()

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.times.extend([perf_counter()] * s.count("\n"))
        return self.text.write(s)


class CliRoundtrip:
    name = "cli_roundtrip"

    def __init__(self, pl, per_family: int = SEEDS_PER_FAMILY, work_dir: Path | None = None):
        self.pl = pl
        self.per_family = per_family
        self.work_dir = work_dir or ROOT / ".perfbench_run"
        self.seed = None
        self.checked_digest = None

    def setup(self, seed: int):
        """Truth corner counts per scene, for the exact-corner share."""
        pl = self.pl
        self.seed = seed
        truths = {}
        for fam, s in fixture_ids(pl, seed, self.per_family):
            _, truth = pl.render_signal(pl.make_fixture(fam, s))
            truths[f"{fam}_{s:04d}"] = len(truth.corners)
        return truths

    def _cli(self, argv: list[str], clock: _LineClock) -> None:
        """Run one command; a per-file failure (exit code 2) fails the check."""
        with contextlib.redirect_stdout(clock), contextlib.redirect_stderr(clock):
            rc = self.pl.cli.main(argv)
        if rc != 0:
            tail = clock.text.getvalue()[-2000:]
            raise CorrectnessError(f"panolayout {argv[0]} exited {rc}:\n{tail}")

    def run_pass(self, truths, tracer=None) -> PassResult:
        """synth -> postprocess -> evaluate, one family's batch at a time.

        Batching spreads each command's samples over the whole pass, so a
        stage's figures do not hang on a single stretch of host speed.
        """
        pl = self.pl
        res = PassResult(0.0, len(truths))
        res.stage_s = dict.fromkeys(("synth", "postprocess", "evaluate"), 0.0)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            t_pass = perf_counter()
            for fam in pl.FIXTURE_FAMILIES:
                data, pred = Path(tmp, "data", fam), Path(tmp, "pred", fam)
                csv = Path(tmp, f"{fam}.csv")
                if tracer:
                    tracer.scene = f"cli.synth:{fam}"
                t0 = perf_counter()
                self._cli(
                    ["synth", "--family", fam, "--count", str(self.per_family),
                     "--seed", str(self.seed), "--out", str(data),
                     "--noise-sigma", str(CLI_NOISE_SIGMA)],
                    _LineClock(),
                )
                t1 = perf_counter()
                if tracer:
                    tracer.scene = f"cli.postprocess:{fam}"
                clock = _LineClock()
                self._cli(["postprocess", "--in", str(data), "--out", str(pred)], clock)
                t2 = perf_counter()
                if tracer:
                    tracer.scene = f"cli.evaluate:{fam}"
                self._cli(
                    ["evaluate", "--pred", str(pred), "--gt", str(data), "--out", str(csv)],
                    _LineClock(),
                )
                t3 = perf_counter()
                for stage, dt in zip(res.stage_s, (t1 - t0, t2 - t1, t3 - t2)):
                    res.stage_s[stage] += dt
                # the postprocess command prints one line per input file, in order
                if len(clock.times) != self.per_family:
                    raise CorrectnessError(
                        f"cli postprocess printed {len(clock.times)} lines for "
                        f"{self.per_family} {fam} files"
                    )
                ends = [t1] + clock.times
                res.postprocess_ms += [1e3 * (b - a) for a, b in zip(ends, ends[1:])]
                res.files[f"report/{fam}.csv"] = csv.read_bytes()
                for p in sorted(pred.iterdir()):
                    res.files[f"pred/{p.name}"] = p.read_bytes()
                for p in sorted(data.glob("*.layout.json")):
                    res.files[f"gt/{p.name}"] = p.read_bytes()
            res.wall_s = perf_counter() - t_pass
        res.digest = _digest(sorted(res.files.items()))
        # exit code 0 means every file was written and scored
        rows = _report_rows(res.files)
        if sorted(rows) != sorted(truths):
            raise CorrectnessError("cli evaluate did not score every scene")
        for stem, n_truth in truths.items():
            pred_doc = res.files[f"pred/{stem}.layout.json"]
            res.exact += len(pl.parse_layout_json(pred_doc).corners) == n_truth
            res.iou2d.append(rows[stem][0])
        return res

    def check(self, res: PassResult) -> None:
        """The CSV equals library evaluate_pair on the same parsed files.

        Scoring every scene again costs as much as the CLI's own evaluate, so
        it runs once; passes with the same output digest are the same outputs.
        """
        if self.checked_digest == res.digest:
            return
        if self.checked_digest is not None:
            raise CorrectnessError("cli_roundtrip outputs differ between passes")
        pl = self.pl
        for stem, row in _report_rows(res.files).items():
            pred = pl.parse_layout_json(res.files[f"pred/{stem}.layout.json"])
            gt = pl.parse_layout_json(res.files[f"gt/{stem}.layout.json"])
            want = pl.evaluate_pair(pred, gt, regime="non_visible").as_row()
            if row != want:
                raise CorrectnessError(f"cli_roundtrip {stem}: csv {row} != library {want}")
        self.checked_digest = res.digest


def _csv_float(token: str) -> float:
    # emit_report writes repr() of the values, which numpy 2 spells
    # "np.float64(0.98...)" for numpy scalars
    if token.startswith("np.float64(") and token.endswith(")"):
        token = token[len("np.float64(") : -1]
    return float(token)


def _parse_report(csv: bytes) -> dict[str, list[float]]:
    lines = csv.decode().splitlines()
    rows = {}
    for line in lines[1:]:
        name, *values = line.split(",")
        if name != "mean":
            rows[name] = [_csv_float(v) for v in values]
    return rows


def _report_rows(files: dict[str, bytes]) -> dict[str, list[float]]:
    rows = {}
    for name, data in files.items():
        if name.startswith("report/"):
            rows.update(_parse_report(data))
    return rows


WORKLOADS = {cls.name: cls for cls in (OracleEval, NoisyPostprocess, CliRoundtrip)}

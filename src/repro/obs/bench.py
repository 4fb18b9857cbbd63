"""Machine-readable benchmark records and the regression gate.

Every ``benchmarks/bench_*.py`` emits one schema-versioned
:class:`BenchRecord` through the shared ``bench_record`` fixture
(``benchmarks/conftest.py``): benchmark name, the scale-config
fingerprint (via :mod:`repro.store.keys`, so records from different
scales are never compared against each other), named metrics (wall
times, throughputs, compression ratios, overhead percentages), peak
memory, and host info.  Records land in two places:

- ``BENCH_<name>.json`` in the bench output directory (the repo root by
  default; ``REPRO_BENCH_DIR`` overrides) — the repo's perf trajectory,
  diffed by ``repro bench compare`` against committed baselines in
  ``benchmarks/baselines/``;
- one JSON line appended to ``benchmarks/results/history/<name>.jsonl``
  (``REPRO_BENCH_HISTORY`` overrides) — the append-only history behind
  ``repro bench ls``/``show``.

Each metric carries a ``direction`` ("lower" or "higher" is better) and
an optional per-metric ``threshold_pct`` overriding the gate's default,
so noisy wall-clock metrics can be held to a looser bar than exact
compression ratios.  :func:`compare_records` is the pure core of the
gate; the ``repro bench`` CLI (:mod:`repro.cli`) wraps it and exits
non-zero when any regression crosses its threshold.

Unlike the :mod:`repro.obs` package root, this is a *leaf* module: it
imports :mod:`repro.store.keys` and is deliberately not re-exported
from ``repro.obs.__init__`` — the CLI and the benchmark conftest import
it directly.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator

from repro import config as _config

__all__ = [
    "SCHEMA_VERSION",
    "BenchRecord",
    "Delta",
    "Metric",
    "bench_dir",
    "compare_records",
    "config_divergence",
    "history_dir",
    "iter_records",
    "load_record",
    "record_path",
]

#: Bump when the record layout changes incompatibly; ``load_record``
#: refuses records from a different major schema.
SCHEMA_VERSION = 1

_PREFIX = "BENCH_"
_DIRECTIONS = ("lower", "higher")


def bench_dir() -> Path:
    """Where ``BENCH_<name>.json`` records live.

    ``REPRO_BENCH_DIR`` overrides; the default is the current working
    directory (the repo root when invoking ``repro bench`` from a
    checkout — the benchmark conftest passes the root explicitly).
    """
    return Path(_config.env_str("REPRO_BENCH_DIR") or ".")


def history_dir() -> Path:
    """Where per-benchmark history JSONL files accumulate.

    ``REPRO_BENCH_HISTORY`` overrides; the default is
    ``benchmarks/results/history`` under :func:`bench_dir`.
    """
    override = _config.env_str("REPRO_BENCH_HISTORY")
    if override:
        return Path(override)
    return bench_dir() / "benchmarks" / "results" / "history"


def record_path(name: str, out_dir: str | Path | None = None) -> Path:
    """The ``BENCH_<name>.json`` path for one benchmark name."""
    root = Path(out_dir) if out_dir is not None else bench_dir()
    return root / f"{_PREFIX}{name}.json"


@dataclass
class Metric:
    """One named measurement inside a :class:`BenchRecord`."""

    value: float
    unit: str = ""
    #: Which way is *better*: "lower" (times, CRs, overheads) or
    #: "higher" (throughput, speedups, pass counts).
    direction: str = "lower"
    #: Per-metric regression threshold (percent); ``None`` defers to the
    #: gate's ``--threshold`` default.
    threshold_pct: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"metric direction must be one of {_DIRECTIONS}, "
                f"got {self.direction!r}"
            )
        self.value = float(self.value)


def _host_info() -> dict[str, Any]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


@dataclass
class BenchRecord:
    """One benchmark run's telemetry, serialized to ``BENCH_<name>.json``.

    Build one with :meth:`start`, add measurements with :meth:`add`,
    then :meth:`write` (and optionally :meth:`append_history`).
    ``fingerprint`` hashes the producing scale config so the regression
    gate never diffs records from different scales.
    """

    name: str
    schema: int = SCHEMA_VERSION
    fingerprint: str = ""
    config: dict[str, int] = field(default_factory=dict)
    created: str = ""
    host: dict[str, Any] = field(default_factory=_host_info)
    metrics: dict[str, Metric] = field(default_factory=dict)
    mem: dict[str, float] = field(default_factory=dict)

    @classmethod
    def start(cls, name: str, config: Any = None) -> "BenchRecord":
        """Open a record for ``name``, fingerprinting ``config`` if given."""
        from repro.store.keys import artifact_key, config_fingerprint

        record = cls(
            name=name,
            created=datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
        )
        if config is not None:
            record.config = config_fingerprint(config)
            record.fingerprint = artifact_key(f"bench.{name}",
                                              config=config)
        else:
            record.fingerprint = artifact_key(f"bench.{name}")
        return record

    def add(self, name: str, value: float, *, unit: str = "",
            direction: str = "lower",
            threshold_pct: float | None = None) -> None:
        """Record one metric (last write per name wins)."""
        self.metrics[name] = Metric(value=value, unit=unit,
                                    direction=direction,
                                    threshold_pct=threshold_pct)

    def finalize_mem(self) -> None:
        """Snapshot this process's peak RSS into the record."""
        from repro.obs import memory

        peak = memory.peak_rss_bytes()
        if peak:
            self.mem["peak_rss_mb"] = peak / 1e6

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready payload (metrics as plain dicts)."""
        payload = asdict(self)
        payload["metrics"] = {k: asdict(m)
                              for k, m in self.metrics.items()}
        return payload

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "BenchRecord":
        """Parse and validate one record payload (see :func:`validate`)."""
        validate(obj)
        metrics = {k: Metric(**m) for k, m in obj["metrics"].items()}
        return cls(
            name=obj["name"], schema=obj["schema"],
            fingerprint=obj["fingerprint"],
            config=dict(obj.get("config", {})),
            created=obj.get("created", ""),
            host=dict(obj.get("host", {})),
            metrics=metrics,
            mem=dict(obj.get("mem", {})),
        )

    def write(self, out_dir: str | Path | None = None) -> Path:
        """Write ``BENCH_<name>.json`` (pretty-printed, trailing newline)."""
        self.finalize_mem()
        path = record_path(self.name, out_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def append_history(self,
                       hist_dir: str | Path | None = None) -> Path:
        """Append one compact JSON line to the benchmark's history file."""
        root = Path(hist_dir) if hist_dir is not None else history_dir()
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{self.name}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True) + "\n")
        return path


def validate(obj: Any) -> None:
    """Raise ``ValueError`` naming every problem with a record payload."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        raise ValueError(f"bench record must be an object, "
                         f"got {type(obj).__name__}")
    for key, kind in (("name", str), ("schema", int),
                      ("fingerprint", str), ("metrics", dict)):
        if key not in obj:
            problems.append(f"missing field {key!r}")
        elif not isinstance(obj[key], kind):
            problems.append(
                f"field {key!r} must be {kind.__name__}, "
                f"got {type(obj[key]).__name__}"
            )
    if isinstance(obj.get("schema"), int) and \
            obj["schema"] != SCHEMA_VERSION:
        problems.append(
            f"schema {obj['schema']} != supported {SCHEMA_VERSION}"
        )
    metrics = obj.get("metrics")
    for name, metric in (metrics.items()
                         if isinstance(metrics, dict) else ()):
        if not isinstance(metric, dict) or "value" not in metric:
            problems.append(f"metric {name!r} lacks a value")
            continue
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"metric {name!r} value is not numeric")
        if metric.get("direction", "lower") not in _DIRECTIONS:
            problems.append(
                f"metric {name!r} direction "
                f"{metric.get('direction')!r} not in {_DIRECTIONS}"
            )
    if problems:
        raise ValueError("invalid bench record: " + "; ".join(problems))


def load_record(path: str | Path) -> BenchRecord:
    """Load and validate one ``BENCH_*.json`` file."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return BenchRecord.from_dict(obj)


def iter_records(directory: str | Path | None = None
                 ) -> Iterator[tuple[Path, BenchRecord]]:
    """Yield ``(path, record)`` for every ``BENCH_*.json`` in a directory.

    Invalid records are skipped with a warning on stderr rather than
    aborting the listing: one corrupt file must not hide the rest.
    """
    root = Path(directory) if directory is not None else bench_dir()
    for path in sorted(root.glob(f"{_PREFIX}*.json")):
        try:
            yield path, load_record(path)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)


# -- the regression gate -----------------------------------------------------

@dataclass
class Delta:
    """One metric's movement between a baseline and a current record."""

    metric: str
    baseline: float
    current: float
    #: Signed percent change toward *worse* (positive = regressed
    #: direction), computed direction-aware so "higher is better"
    #: metrics regress when they drop.
    change_pct: float
    threshold_pct: float
    unit: str = ""

    @property
    def regressed(self) -> bool:
        """Whether the movement crosses the regression threshold."""
        return self.change_pct > self.threshold_pct


def compare_records(current: BenchRecord, baseline: BenchRecord,
                    default_threshold_pct: float = 20.0) -> list[Delta]:
    """Direction-aware metric deltas between two records.

    Only metrics present in *both* records are compared (a brand-new
    metric cannot regress).  The caller is responsible for checking
    fingerprints first — comparing records from different scale configs
    is meaningless and :func:`compare_dirs` skips them.
    """
    deltas: list[Delta] = []
    for name in sorted(current.metrics):
        if name not in baseline.metrics:
            continue
        cur = current.metrics[name]
        base = baseline.metrics[name]
        if base.value == 0.0:
            change = 0.0 if cur.value == base.value else float("inf")
        else:
            raw = (cur.value - base.value) / abs(base.value) * 100.0
            change = raw if cur.direction == "lower" else -raw
        threshold = cur.threshold_pct
        if threshold is None:
            threshold = base.threshold_pct
        if threshold is None:
            threshold = default_threshold_pct
        deltas.append(Delta(
            metric=name, baseline=base.value, current=cur.value,
            change_pct=change, threshold_pct=threshold, unit=cur.unit,
        ))
    return deltas


def config_divergence(current: BenchRecord,
                      baseline: BenchRecord) -> list[str]:
    """Name every config key whose value differs between two records.

    Used when fingerprints disagree: instead of a bare refusal the gate
    can say *which* scale knobs moved (``ne: baseline=4 current=8``).
    Keys present on only one side report the other as ``absent``.  An
    empty list with differing fingerprints means the configs agree and
    the divergence is in the benchmark identity itself (renamed
    benchmark, changed key-derivation) rather than the scale.
    """
    lines: list[str] = []
    for key in sorted(set(current.config) | set(baseline.config)):
        base = baseline.config.get(key, "absent")
        cur = current.config.get(key, "absent")
        if base != cur:
            lines.append(f"{key}: baseline={base} current={cur}")
    return lines


def fingerprint_skip_reason(current: BenchRecord,
                             baseline: BenchRecord) -> str:
    diverged = config_divergence(current, baseline)
    detail = (
        "; ".join(diverged) if diverged
        else "no config keys differ — the benchmark identity changed"
    )
    return (
        f"{current.name}: config fingerprint differs from the "
        f"baseline; not comparable ({detail})"
    )


def compare_dirs(current_dir: str | Path | None,
                 baseline_dir: str | Path,
                 default_threshold_pct: float = 20.0,
                 ) -> tuple[dict[str, list[Delta]], list[str]]:
    """Compare every current record against its committed baseline.

    Returns ``(deltas_by_name, skipped)``: records with no baseline
    file, or whose config fingerprint differs from the baseline's
    (different scale — incomparable), are listed in ``skipped`` with a
    reason instead of being force-compared.  Fingerprint skips name the
    diverging config keys (see :func:`config_divergence`) so the fix —
    rerun at the baseline's scale, or rebaseline — is obvious.
    """
    baseline_dir = Path(baseline_dir)
    deltas_by_name: dict[str, list[Delta]] = {}
    skipped: list[str] = []
    for path, record in iter_records(current_dir):
        base_path = baseline_dir / path.name
        if not base_path.exists():
            skipped.append(f"{record.name}: no baseline at {base_path}")
            continue
        baseline = load_record(base_path)
        if baseline.fingerprint != record.fingerprint:
            skipped.append(fingerprint_skip_reason(record, baseline))
            continue
        deltas_by_name[record.name] = compare_records(
            record, baseline, default_threshold_pct
        )
    return deltas_by_name, skipped

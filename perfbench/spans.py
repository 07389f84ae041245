"""Span tracing of refaudit from outside the program.

``Tracer.install()`` wraps the public functions of each refaudit module by
replacing every module attribute that refers to them (so ``cli.head_mask``,
``surface.head_mask`` and ``quality.head_mask`` are all wrapped, whichever
caller looks them up). Each wrapped call records a span: name, start, end,
parent span (from a thread-local stack), thread and subject id. Spans and
counters stay in memory; ``layer_metrics`` reduces them to the per-layer
metrics that ``BENCHMARK.json`` lists and ``dump`` writes them out.
``uninstall()`` restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# Span names whose durations make up stats.csv_read_s.
CSV_READERS = ("stats.ObservationTable.from_csv", "stats.read_predictions_csv",
               "cli.read_distance_table")

# Spans of the front-end's own control flow; the layers are what they call.
FRONT_END = ("cli.cmd_demo", "cli.demo_subject")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    subject: str | None


@dataclass
class _ThreadState:
    name: str
    stack: list = field(default_factory=list)
    subject: str | None = None


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class _CountingNdimage:
    """Stands in for ``scipy.ndimage`` inside ``refaudit.quality`` and counts
    the separable filter passes SSIM makes, with the bytes each pass reads
    and writes (computed from the array sizes)."""

    def __init__(self, tracer, real):
        self._tracer = tracer
        self._real = real

    def correlate1d(self, input, *args, **kwargs):
        out = self._real.correlate1d(input, *args, **kwargs)
        self._tracer.add("quality.ssim.filter_passes", 1)
        self._tracer.add("quality.ssim.bytes_computed", input.nbytes + out.nbytes)
        return out

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)
        self.digests: dict = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on a count is atomic
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def saw(self, key: str, digest: str) -> None:
        with self._lock:
            self.digests[key].add(digest)

    def _thread(self):
        """This thread's span stack, subject and name."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(threading.current_thread().name)
        return state

    @contextmanager
    def subject(self, subject_id: str):
        """Tag every span opened on this thread inside the block."""
        state = self._thread()
        previous, state.subject = state.subject, subject_id
        try:
            yield
        finally:
            state.subject = previous

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span called ``name`` (a string, or a function of
        the call's arguments); ``after(args, kwargs, result)`` records counts
        once the call has returned."""
        ids, spans, clock = self._ids, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            state = self._thread()
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.add(f"{span_name}.raised.{type(exc).__name__}", 1)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, span_name, start, end, parent, state.name, state.subject))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Point every refaudit module attribute bound to ``original`` at
        ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "refaudit" or mod_name.startswith("refaudit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def install(self) -> None:
        import refaudit.cli as cli
        import refaudit.ddim as ddim
        import refaudit.deface as deface
        import refaudit.denoisers as denoisers
        import refaudit.masks as masks
        import refaudit.phantom as phantom
        import refaudit.quality as quality
        import refaudit.stats as stats
        import refaudit.surface as surface
        import refaudit.volume as volume

        def distinct_input(key):
            def record(args, kwargs, result):
                self.saw(key, _digest(args[0].data, args[0].affine))
            return record

        def bytes_read(args, kwargs, result):
            self.add("volume.read_nifti_file.bytes", os.path.getsize(args[0]))

        def bytes_written(args, kwargs, result):
            self.add("volume.write_nifti_file.bytes", os.path.getsize(args[1]))

        def sample_stage(args, kwargs):
            return "ddim.sample.stage2" if "slab_range" in args[1] else "ddim.sample.stage1"

        def after_step(args, kwargs, result):
            self.add("ddim.ddim_step.voxels", result.size)

        def after_quickshear(args, kwargs, result):
            self.add("deface.removed_voxels", result[1].count())

        def after_mc(args, kwargs, result):
            self.add("surface.marching_cubes.vertices", result.n_vertices)
            self.saw("surface.marching_cubes", _digest(args[0].data, args[0].affine))

        def after_indices(args, kwargs, result):
            attempt = args[3] if len(args) > 3 else kwargs.get("attempt", 0)
            if attempt:
                self.add("stats.bootstrap_indices.redraws", 1)

        functions = [
            (phantom, "generate_cohort", "phantom.generate_cohort", None),
            (phantom, "generate_phantom", "phantom.generate_phantom", None),
            (masks, "head_mask", "masks.head_mask", distinct_input("masks.head_mask")),
            (masks, "face_roi", "masks.face_roi", None),
            (deface, "quickshear", "deface.quickshear", after_quickshear),
            (ddim, "cascade_reface", "ddim.cascade_reface", None),
            (ddim, "sample", sample_stage, None),
            (ddim, "ddim_step", "ddim.ddim_step", after_step),
            (ddim, "merge_slabs", "ddim.merge_slabs", None),
            (volume, "downsample", "volume.downsample", None),
            (volume, "upsample_trilinear", "volume.upsample_trilinear", None),
            (denoisers, "mirror_fill", "denoisers.mirror_fill", None),
            (surface, "face_distance_report", "surface.face_distance_report", None),
            (surface, "marching_cubes", "surface.marching_cubes", after_mc),
            (surface, "masd", "surface.masd", None),
            (quality, "quality_report", "quality.quality_report", None),
            (quality, "ssim", "quality.ssim", None),
            (quality, "psnr", "quality.psnr", None),
            (volume, "write_nifti_file", "volume.write_nifti_file", bytes_written),
            (volume, "read_nifti_file", "volume.read_nifti_file", bytes_read),
            (stats, "correlation_report", "stats.correlation_report", None),
            (stats, "fit_lmm", "stats.fit_lmm", None),
            (stats, "spearman", "stats.spearman", None),
            (stats, "rankdata", "stats.rankdata", None),
            (stats, "bootstrap", "stats.bootstrap", None),
            (stats, "bootstrap_indices", "stats.bootstrap_indices", after_indices),
            (stats, "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank", None),
            (stats, "read_predictions_csv", "stats.read_predictions_csv", None),
            (cli, "_read_distance_table", "cli.read_distance_table", None),
            (cli, "cmd_demo", "cli.cmd_demo", None),
        ]
        for module, attr, name, after in functions:
            original = getattr(module, attr)
            self._replace_everywhere(original, self.wrap(name, original, after))

        wrapped_subject = self.wrap("cli.demo_subject", cli._demo_subject)

        def traced_subject(case, *args, **kwargs):
            with self.subject(case.subject_id):
                return wrapped_subject(case, *args, **kwargs)

        self._replace(cli, "_demo_subject", traced_subject)

        self._replace(denoisers.VolumeDenoiser, "__call__",
                      self.wrap("denoisers.VolumeDenoiser", denoisers.VolumeDenoiser.__call__))
        from_csv = stats.ObservationTable.__dict__["from_csv"].__func__
        self._replace(stats.ObservationTable, "from_csv",
                      classmethod(self.wrap("stats.ObservationTable.from_csv", from_csv)))
        self._replace(quality, "ndimage", _CountingNdimage(self, quality.ndimage))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, pass_start: float, pass_end: float, per_layer: list) -> dict:
        """Per-layer metrics of one pass from the recorded spans and counts,
        for the ``per_layer`` entries of BENCHMARK.json (names are
        ``<module>.<function>.<quantity>``); a layer the pass never reached
        reads 0."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        self_time = defaultdict(float)
        for s in self.spans:
            self_time[s.name] += s.end - s.start - child_time[s.id]

        def frac(num, den):
            return num / den if den else 0.0

        m = {}
        for name in (metric["name"] for metric in per_layer):
            layer, _, quantity = name.rpartition(".")
            if quantity == "calls":
                m[name] = calls[layer]
            elif quantity == "s":
                m[name] = total[layer]
            elif quantity == "self_s":
                m[name] = self_time[layer]
        stages = ("ddim.sample.stage1", "ddim.sample.stage2")
        m["ddim.sample.calls"] = sum(calls[s] for s in stages)
        m["ddim.sample.stage1_s"] = total[stages[0]]
        m["ddim.sample.stage2_s"] = total[stages[1]]
        m["ddim.sample.self_s"] = sum(self_time[s] for s in stages)
        m["ddim.slabs"] = calls[stages[1]]
        for key in ("ddim.ddim_step.voxels", "deface.removed_voxels",
                    "surface.marching_cubes.vertices", "quality.ssim.filter_passes",
                    "quality.ssim.bytes_computed", "volume.write_nifti_file.bytes",
                    "volume.read_nifti_file.bytes"):
            m[key] = self.counts[key]
        for layer in ("masks.head_mask", "surface.marching_cubes"):
            m[f"{layer}.unique_frac"] = frac(len(self.digests[layer]), calls[layer])
        m["stats.spearman.degenerate"] = self.counts["stats.spearman.raised.DegenerateInputError"]
        m["stats.redraw_frac"] = frac(self.counts["stats.bootstrap_indices.redraws"],
                                      calls["stats.bootstrap_indices"])
        m["stats.csv_read_s"] = sum(total[name] for name in CSV_READERS)
        m.update(self._demo_pool_metrics())
        m["trace.spans"] = len(self.spans)
        m["trace.coverage_frac"] = frac(self._top_level_time(by_id), pass_end - pass_start)
        return m

    def _demo_pool_metrics(self) -> dict:
        demo = [s for s in self.spans if s.name == "cli.cmd_demo"]
        subjects = [s for s in self.spans if s.name == "cli.demo_subject"]
        if not demo or not subjects:
            return {"cli.demo.serial_s": 0.0, "cli.demo.queue_wait_s": 0.0,
                    "cli.demo.worker_busy_frac": 0.0}
        run = demo[0]
        # the pool starts once cmd_demo's own cohort build has returned
        pool_start = max(s.end for s in self.spans
                         if s.name == "phantom.generate_cohort" and s.parent == run.id)
        pool_end = max(s.end for s in subjects)
        busy = sum(s.end - s.start for s in subjects)
        return {
            "cli.demo.serial_s": (run.end - run.start) - _union([(s.start, s.end) for s in subjects]),
            "cli.demo.queue_wait_s": sum(s.start - pool_start for s in subjects),
            "cli.demo.worker_busy_frac": busy / (self.workers * (pool_end - pool_start)),
        }

    def _top_level_time(self, by_id) -> float:
        """Wall time covered by layer spans that no other layer span encloses
        (spans of the cli front-end itself do not count as layers)."""
        intervals = []
        for s in self.spans:
            if s.name in FRONT_END:
                continue
            parent = by_id.get(s.parent)
            if parent is None or parent.name in FRONT_END:
                intervals.append((s.start, s.end))
        return _union(intervals)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.__dict__) + "\n")


def exact_counts(metrics: dict, per_layer: list) -> dict:
    """The metrics of a pass that count work; they must repeat exactly."""
    return {m["name"]: metrics[m["name"]] for m in per_layer if m["unit"] in ("count", "B")}


def _union(intervals) -> float:
    covered, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered

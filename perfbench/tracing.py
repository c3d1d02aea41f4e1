"""Spans and counts around the public functions of the package's modules.

``Tracer.install`` replaces every public function of the layer modules,
in every ``amdnloc`` module namespace that holds it, with a wrapper
that records a span (name, start, end, parent) and runs a counting hook
on the result. ``uninstall`` puts the originals back. Spans stay in
memory until ``write``.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = [
    "scenegen",
    "channel",
    "segmentation_cfr",
    "segmentation_adcam",
    "fusion",
    "localizer",
    "io",
    "evaluate",
]


def _files_size(*paths) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


# Counting hooks: (counts, args, result) -> None, keyed by span name.
HOOKS = {
    "scenegen.build_dataset": lambda c, a, r: c.update({"scenegen.terminals": len(r)}),
    "segmentation_cfr.match_within": lambda c, a, r: c.update({"segmentation_cfr.categories_within": r.class_count}),
    "segmentation_cfr.match_between": lambda c, a, r: c.update({"segmentation_cfr.founders": r.class_count}),
    "segmentation_adcam.select_k": lambda c, a, r: c.update({"segmentation_adcam.k": r[0]}),
    "fusion.cleanse": lambda c, a, r: c.update({"fusion.regions": r.fused_count, "fusion.retained": int(r.retained.sum())}),
    "io.write_dataset": lambda c, a, r: c.update(
        {"io.bytes_written": _files_size(*(Path(a[1]) / f for f in ("positions.csv", "paths.csv", "cfr.bin", "adcam.bin")))}
    ),
    "io.write_region_map": lambda c, a, r: c.update({"io.bytes_written": _files_size(Path(a[0]))}),
    "io.write_model": lambda c, a, r: c.update({"io.bytes_written": _files_size(Path(a[0]))}),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - self._origin
                span[1] = t0 - self._origin
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"amdnloc.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "amdnloc" and not mod_name.startswith("amdnloc."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path: Path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "counts": dict(self.counts), "spans": self.spans}))

    def layer_metrics(self) -> dict[str, float]:
        """Busy time and call count per function, self times, and hook counts."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]
        fallbacks = sum(
            1
            for name, _, _, parent in self.spans
            if name == "localizer.sample_features" and parent >= 0 and self.spans[parent][0] == "localizer.assign_region"
        )
        out = {
            "scenegen.build_dataset_s": busy["scenegen.build_dataset"],
            "scenegen.terminals": self.counts["scenegen.terminals"],
            "channel.render_image_s": busy["channel.render_image"],
            "channel.render_image_calls": calls["channel.render_image"],
            "segmentation_cfr.match_within_s": busy["segmentation_cfr.match_within"],
            "segmentation_cfr.categories_within": self.counts["segmentation_cfr.categories_within"],
            "segmentation_cfr.match_between_s": busy["segmentation_cfr.match_between"],
            "segmentation_cfr.founders": self.counts["segmentation_cfr.founders"],
            "segmentation_cfr.ncc_s": busy["segmentation_cfr.ncc"],
            "segmentation_cfr.ncc_calls": calls["segmentation_cfr.ncc"],
            "localizer.assign_region_s": busy["localizer.assign_region"],
            "localizer.assign_region_calls": calls["localizer.assign_region"],
            "localizer.route_fallbacks": fallbacks,
            "localizer.sample_features_s": busy["localizer.sample_features"],
            "localizer.sample_features_calls": calls["localizer.sample_features"],
            "localizer.train_s": busy["localizer.train"],
            "localizer.predict_s": busy["localizer.predict"],
            "localizer.predict_calls": calls["localizer.predict"],
            "segmentation_adcam.select_k_s": busy["segmentation_adcam.select_k"],
            "segmentation_adcam.k": self.counts["segmentation_adcam.k"],
            "fusion.fuse_cleanse_s": busy["fusion.fuse_labels"] + busy["fusion.cleanse"],
            "fusion.regions": self.counts["fusion.regions"],
            "fusion.retained": self.counts["fusion.retained"],
            "io.write_dataset_s": busy["io.write_dataset"],
            "io.write_model_s": busy["io.write_model"],
            "io.bytes_written": self.counts["io.bytes_written"],
            "io.read_dataset_s": busy["io.read_dataset"],
            "io.read_model_s": busy["io.read_model"],
            "evaluate.run_pipeline_self_s": self_time["evaluate.run_pipeline"],
        }
        return out

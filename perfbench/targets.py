"""Scenarios, serve targets and seeded inputs shared by every workload.

Everything here goes through the public API of ``repro``: lifts run through
:class:`repro.core.session.LiftSession` against a private
:class:`repro.store.ArtifactStore`, single-Func targets are built with
:func:`repro.rejuvenation.serving.make_serve_requests` (exactly as
``serve_lifted`` and ``python -m repro serve`` build them), and the two
scheduled pipelines are :class:`repro.halide.FuncPipeline` chains of lifted
Photoshop kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Scenarios the serve targets are built from.
SERVE_SCENARIOS = (
    ("photoshop", "blur"),
    ("photoshop", "sharpen_more"),
    ("photoshop", "equalize"),
    ("photoshop", "sharpen"),
    ("photoshop", "blur_more"),
    ("irfanview", "sharpen"),
    ("minigmg", "smooth"),
)

#: Single-Func targets: name -> lifted scenario.
FUNC_TARGETS = {
    "ps_blur": ("photoshop", "blur"),
    "ps_sharpen_more": ("photoshop", "sharpen_more"),
    "ps_equalize": ("photoshop", "equalize"),
    "iv_sharpen": ("irfanview", "sharpen"),
    "gmg_smooth": ("minigmg", "smooth"),
}
PIPELINE_TARGETS = ("blur2_at", "chain3_root")
TARGETS = tuple(FUNC_TARGETS) + PIPELINE_TARGETS
ENGINES = ("compiled", "native")

#: Frame geometry per serve workload: planar (width, height), interleaved
#: (width, height) and the miniGMG grid interior (nx, ny, nz); plus the
#: blur2_at consumer tile.
SIZES = {
    "serve-large": {"planar": (1920, 1280), "interleaved": (960, 640),
                    "grid": (256, 256, 16), "tile": (480, 320)},
    "serve-small": {"planar": (256, 192), "interleaved": (256, 192),
                    "grid": (32, 32, 16), "tile": (128, 96)},
}

#: The tuner's seed and sample count for the blur -> sharpen -> blur_more
#: chain, tuned at each workload's planar frame size.
TUNE_SEED = 7
TUNE_ITERATIONS = 10


def _photoshop_func(result):
    kernel = sorted(result.kernels, key=lambda k: k.output)[0]
    return result.funcs[kernel.output], sorted(kernel.input_names)[0]


def build_blur2_at(lifts, tile) -> "FuncPipeline":
    """blur(blur(frame)): consumer tiled + parallel, producer compute_at."""
    from repro.halide import FuncPipeline, Schedule

    func, input_name = _photoshop_func(lifts[("photoshop", "blur")])
    first = replace(func, schedule=Schedule())
    second = replace(func, schedule=Schedule())
    pipeline = FuncPipeline()
    pipeline.add(first, input_name=input_name, pad=1, name="blur1")
    pipeline.add(second, input_name=input_name, pad=1, name="blur2")
    second.tile(*tile)
    second.parallel()
    first.compute_at(second, "x_1")
    return pipeline


def build_chain3(lifts, root: bool = True) -> "FuncPipeline":
    """blur -> sharpen -> blur_more, every stage ``compute_root`` if ``root``."""
    from repro.halide import FuncPipeline, Schedule

    pipeline = FuncPipeline()
    for name in ("blur", "sharpen", "blur_more"):
        func, input_name = _photoshop_func(lifts[("photoshop", name)])
        stage = replace(func, schedule=Schedule())
        if root:
            stage.compute_root()
        pipeline.add(stage, input_name=input_name, pad=1, name=name)
    return pipeline


def chain3_with(lifts, schedules) -> "FuncPipeline":
    """A fresh blur -> sharpen -> blur_more chain carrying ``schedules``."""
    pipeline = build_chain3(lifts, root=False)
    for stage, schedule in zip(pipeline.stages, schedules):
        stage.func.schedule = replace(schedule)
    return pipeline


def make_frame(layout: str, size, rng) -> np.ndarray:
    """One seeded frame in the app's native layout (NumPy order)."""
    if layout == "grid":
        nx, ny, nz = size
        return rng.uniform(-1.0, 1.0, size=(nz + 2, ny + 2, nx + 2))
    width, height = size
    shape = (height, width, 3) if layout == "interleaved" else (height, width)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def target_layout(target: str) -> str:
    if target == "iv_sharpen":
        return "interleaved"
    if target == "gmg_smooth":
        return "grid"
    return "planar"


def make_inputs(seed: int, workload: str, target: str, count: int
                ) -> list[np.ndarray]:
    """``count`` distinct frames for one target, a pure function of the seed."""
    layout = target_layout(target)
    size = SIZES[workload][layout]
    index = TARGETS.index(target)
    return [make_frame(layout, size,
                       np.random.default_rng([seed, index, k]))
            for k in range(count)]


def make_tune_inputs(seed: int, size, count: int) -> list[np.ndarray]:
    """``count`` distinct planar frames for the tuned chain (input 0 is tuned on)."""
    return [make_frame("planar", size,
                       np.random.default_rng([seed, len(TARGETS), k]))
            for k in range(count)]


def same_bits(output, expected) -> bool:
    """True when ``output`` equals ``expected`` bit for bit (dtype and shape too)."""
    if output is None:
        return False
    output = np.ascontiguousarray(output)
    expected = np.ascontiguousarray(expected)
    return (output.dtype == expected.dtype and output.shape == expected.shape
            and np.array_equal(output.view(np.uint8), expected.view(np.uint8)))


@dataclass
class Target:
    """One served target: what to serve and one request per distinct input."""

    name: str
    target: object            # Func or FuncPipeline
    requests: list            # submit() keyword dicts, one per input
    frame_shape: tuple        # NumPy order, as serve_lifted passes it

    @property
    def is_pipeline(self) -> bool:
        from repro.halide import FuncPipeline

        return isinstance(self.target, FuncPipeline)


def build_target(name: str, lifts, frames, tile) -> Target:
    """A fresh serve target over ``frames`` (new Func/pipeline objects)."""
    if name in FUNC_TARGETS:
        from repro.rejuvenation.serving import make_serve_requests

        func, requests = make_serve_requests(lifts[FUNC_TARGETS[name]], frames)
        func = replace(func, schedule=replace(func.schedule))
        frame_shape = tuple(reversed(requests[0]["shape"]))
        return Target(name, func, requests, frame_shape)
    pipeline = build_blur2_at(lifts, tile) if name == "blur2_at" \
        else build_chain3(lifts)
    return Target(name, pipeline, [{"image": frame} for frame in frames],
                  tuple(frames[0].shape))


def oracle(target: Target, request: dict) -> np.ndarray:
    """The interp engine's output for one request (the correctness oracle)."""
    from repro.halide import realize

    if target.is_pipeline:
        return target.target.realize(request["image"],
                                     request.get("params"), engine="interp")
    return realize(target.target, request["shape"], request["buffers"],
                   request.get("params") or {}, engine="interp")

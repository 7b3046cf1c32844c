"""Fuse lifted kernels into a pipeline (the Figure 8 experiment).

Power users chain filters for batch processing; once the kernels are lifted to
the algorithm level they can be fused, keeping intermediates in cache.  This
example builds the paper's IrfanView pipeline (sharpen -> solarize -> blur)
out of lifted kernels as a ``FuncPipeline``, fuses it (the pointwise solarize
is inlined into sharpen, so that intermediate is never materialized), and
compares it with the original application and with the lifted kernels run
one by one.

Run with:  python examples/pipeline_fusion.py
"""

import time

import numpy as np

from repro.apps.images import make_test_planes
from repro.halide import FuncPipeline
from repro.rejuvenation import (
    apply_lifted_irfanview,
    legacy_irfanview_filter,
    lift_irfanview_filter,
)
from repro.rejuvenation.lifted import IV_PADDED_FILTERS

PIPELINE = ("sharpen", "solarize", "blur")


def build_pipeline() -> FuncPipeline:
    """The lifted IrfanView kernels chained on an interleaved (y, x, c) image."""
    pipeline = FuncPipeline()
    for name in PIPELINE:
        lifted = lift_irfanview_filter(name)
        kernel = lifted.kernels[0]
        # Stencils read a one-pixel halo in x and y, never across channels.
        halo = ((1, 1), (1, 1), (0, 0)) if name in IV_PADDED_FILTERS else None
        pipeline.add(lifted.funcs[kernel.output],
                     input_name=kernel.input_names[0], pad_width=halo,
                     name=name)
    return pipeline


def best_ms(runner, repeats: int = 3) -> float:
    runner()                                  # compile / warm up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        runner()
        best = min(best, time.perf_counter() - start)
    return best * 1000


def main() -> None:
    planes = make_test_planes(320, 240, seed=13)
    image = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)

    def legacy_sequence():
        current = image
        for name in PIPELINE:
            current = legacy_irfanview_filter(name, current)
        return current

    def lifted_separately():
        current = image
        for name in PIPELINE:
            current = apply_lifted_irfanview(lift_irfanview_filter(name), name,
                                             current)
        return current

    unfused = build_pipeline()
    fused = unfused.fused()
    print("fused stages:", " -> ".join(stage.name for stage in fused.stages))
    identical = np.array_equal(fused.realize(image), lifted_separately()) \
        and np.array_equal(unfused.realize(image), lifted_separately())
    print("bit-identical to the lifted kernels run one by one:", identical)

    timings = {
        "IrfanView sequence": best_ms(legacy_sequence),
        "lifted, one by one": best_ms(lifted_separately),
        "lifted pipeline": best_ms(lambda: unfused.realize(image)),
        "lifted pipeline, fused": best_ms(lambda: fused.realize(image)),
    }
    baseline = timings["IrfanView sequence"]
    for label, ms in timings.items():
        print(f"{label:24s} {ms:8.1f} ms   {baseline / ms:5.2f}x vs original")
    if not identical:
        raise SystemExit("fused pipeline output differs")


if __name__ == "__main__":
    main()

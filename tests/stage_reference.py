"""An independent oracle for :class:`~repro.halide.FuncPipeline` tests.

Every pipeline realizes through the lowered loop nest, so checking one
engine against another only tests the backends.  This reference shares none
of that machinery: it pads each stage's input the way the app wrappers do
(``np.pad`` in edge mode) and realizes the stage's whole Func on the
tree-walking interpreter, stage by stage — no bounds inference, no clamped
borders, no tiles.  Tests compare lowered output against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.halide import realize_interp


def realize_stage_by_stage(pipeline, image: np.ndarray,
                           params=None) -> np.ndarray:
    """``pipeline`` on ``image``, one padded full-frame stage at a time."""
    current = image
    for stage in pipeline.stages:
        if stage.pad_width is not None:
            padded = np.pad(current, stage.pad_width, mode="edge")
        elif stage.pad:
            padded = np.pad(current, stage.pad, mode="edge")
        else:
            padded = current
        current = realize_interp(stage.func, tuple(reversed(current.shape)),
                                 {stage.input_name: padded}, params)
    return current

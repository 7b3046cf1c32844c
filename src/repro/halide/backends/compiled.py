"""The compiled backend: cached fused-NumPy kernels behind the interface.

Whole-Func realization goes through :func:`repro.halide.compile.compile_func`
(codegen paid once per structural signature, honouring tiled/parallel
schedules); region evaluation calls the cached kernel's ``_body`` — the same
code the kernel's own tile loop runs — so a lowered ``Store`` executes the
fused, CSE'd, narrow-dtype kernel at any origin.  Stores whose expressions
cannot be lowered fall back to the interpreter's region evaluator, keeping
``compiled`` always safe.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..compile import compile_func
from .base import Backend


class CompiledBackend(Backend):
    name = "compiled"
    # A kernel call costs tens of microseconds, so one clamped store beats
    # the slabs on small tiles (128x64: 0.84x the slab time); from ~64K
    # elements the edge-replicated window costs more (480x320: 1.25x).
    merge_border_elems = 1 << 15

    def realize_func(self, func, shape, buffers, params) -> np.ndarray:
        return compile_func(func)(shape, buffers, params)

    def evaluate_region(self, func, origin, extent, buffers,
                        params: Mapping) -> np.ndarray:
        return compile_func(func).evaluate_region(origin, extent, buffers,
                                                  params)

    def reduce_region(self, func, out, origin, extent, buffers,
                      params: Mapping) -> np.ndarray:
        return compile_func(func).reduce_region(out, origin, extent, buffers,
                                                params)

    def region_evaluator(self, func):
        # Resolve the kernel-cache entry once per Store instead of per tile.
        return compile_func(func).evaluate_region

    def region_reducer(self, func):
        return compile_func(func).reduce_region

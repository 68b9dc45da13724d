"""The pipeline registry: one catalog for every end-to-end workload.

Every consumer that used to hardcode Harris — the bench harness, the
AOT kernel library, the autotuner CLI, the fuzzer — enumerates this
registry instead.  A :class:`PipelineSpec` bundles what each of them
needs:

* the RISE **builder** (algorithm only, no schedule) and its symbolic
  input type;
* the **NumPy reference** implementation for PSNR validation and
  differential tests;
* the valid **size domain** (:meth:`PipelineSpec.concrete_sizes` picks
  the smallest sizes legal under a schedule's chunk/vec/strip
  divisibility) and default **parameters** (e.g. the unsharp amount);
* the **named schedules** of one family, offered to every pipeline.
  Whether one applies is never asserted per pipeline: a schedule whose
  optimization does not fire (no circular buffer, no rotating
  registers) raises :class:`~repro.strategies.schedules.ScheduleNotApplicable`
  when it is applied, so a pair applies when its compile succeeds;
* its external **baselines** (Harris: Halide, OpenCV, Lift), which are
  further schedule names of the same spec.

The registry is the only way to name a pipeline: the engine's ``"zoo"``
source (:func:`build_zoo_program`) compiles
``repro.compile("zoo", options={"pipeline": ..., "schedule": ...})``
for any registered pipeline under any family schedule or baseline, so
the benchmark, serving and AOT prebuilds all address kernels this way.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.codegen.sizes import smallest_sizes
from repro.nat import nat
from repro.rise.expr import Expr, Identifier
from repro.rise.types import ArrayType, DataType
from repro.strategies.schedules import (
    DEFAULT_CHUNK,
    DEFAULT_STRIP,
    DEFAULT_VEC,
    Schedule,
    cbuf_par_version,
    cbuf_rrot_par_version,
    cbuf_rrot_version,
    cbuf_version,
    naive_version,
)

__all__ = [
    "SCHEDULE_NAMES",
    "DEFAULT_SCHEDULE",
    "RISE_KIND",
    "PipelineSpec",
    "REGISTRY",
    "names",
    "get",
    "register",
    "make_schedule",
    "build_zoo_program",
]

#: The named schedule family every pipeline is offered, in
#: optimization order (each adds one more paper transformation).
SCHEDULE_NAMES = ("naive", "cbuf", "cbuf-rot", "cbuf-par", "cbuf-rot-par")

#: Schedule used when a caller does not pick one (the listing-5 ladder
#: rung that applies to every current pipeline).
DEFAULT_SCHEDULE = "naive"

#: Cost-model runtime kind of the schedule family (baselines carry their
#: own in :attr:`PipelineSpec.baselines`).
RISE_KIND = "opencl"

_SCHEDULE_FACTORIES = {
    "naive": lambda env, chunk, vec, strip: naive_version(env),
    "cbuf": lambda env, chunk, vec, strip: cbuf_version(env, chunk=chunk, vec=vec),
    "cbuf-rot": lambda env, chunk, vec, strip: cbuf_rrot_version(
        env, chunk=chunk, vec=vec
    ),
    "cbuf-par": lambda env, chunk, vec, strip: cbuf_par_version(
        env, chunk=chunk, vec=vec, strip=strip
    ),
    "cbuf-rot-par": lambda env, chunk, vec, strip: cbuf_rrot_par_version(
        env, chunk=chunk, vec=vec, strip=strip
    ),
}


def make_schedule(
    name: str,
    type_env: Mapping[str, DataType],
    chunk: int | None = None,
    vec: int | None = None,
    strip: int | None = None,
) -> Schedule:
    """Instantiate a named schedule of the family for ``type_env``.

    Unknown names raise ``KeyError`` listing the family, so a typo'd
    request fails loudly instead of silently falling back to naive.
    """
    try:
        factory = _SCHEDULE_FACTORIES[name]
    except KeyError:
        known = ", ".join(SCHEDULE_NAMES)
        raise KeyError(f"no schedule {name!r} (known: {known})") from None
    chunk = chunk if chunk is not None else DEFAULT_CHUNK
    vec = vec if vec is not None else DEFAULT_VEC
    strip = strip if strip is not None else DEFAULT_STRIP
    return factory(dict(type_env), chunk, vec, strip)


@dataclass(frozen=True)
class PipelineSpec:
    """One registered workload: builder, reference, domain, baselines."""

    name: str
    title: str
    description: str
    #: RISE builder: ``build(input_expr, **params) -> Expr``.
    build: Callable[..., Expr]
    #: Name of the single free input array.
    input_name: str
    #: Zero-argument symbolic input type constructor.
    input_type: Callable[[], DataType]
    #: NumPy gold: ``reference(input_array, **params) -> np.ndarray``.
    reference: Callable[..., np.ndarray]
    #: Default values of the builder's scalar parameters.
    params: Mapping[str, float] = field(default_factory=dict)
    #: Smallest interesting output extent per dimension.
    floor: int = 8
    #: Baseline schedule name -> ``(module, attribute, runtime kind)``:
    #: an external implementation's ``build(chunk=, vec=) -> ImpProgram``,
    #: imported lazily, and the kind the cost model charges it.
    baselines: Mapping[str, tuple[str, str, str]] = field(default_factory=dict)

    def expr(self, **params) -> Expr:
        """The high-level RISE program over its named input."""
        merged = {**self.params, **params}
        return self.build(Identifier(self.input_name), **merged)

    def type_env(self) -> dict[str, DataType]:
        """The symbolic type environment binding the input."""
        return {self.input_name: self.input_type()}

    def concrete_sizes(
        self,
        chunk: int | None = None,
        vec: int | None = None,
        strip: int = 1,
    ) -> dict[str, int]:
        """Smallest output sizes >= ``floor`` legal under a schedule's
        divisibility: ``chunk * strip | n`` (two chunks minimum, so the
        chunk boundary is inside the image) and ``vec | m``."""
        return smallest_sizes(int(chunk or 1) * int(strip or 1), vec or 1, self.floor)

    def input_shape(self, sizes: Mapping[str, int]) -> tuple[int, ...]:
        """The concrete input shape under ``sizes``."""
        dims: list[int] = []
        t = self.input_type()
        while isinstance(t, ArrayType):
            dims.append(int(t.size.evaluate(dict(sizes))))
            t = t.elem
        return tuple(dims)

    def make_inputs(
        self, sizes: Mapping[str, int], seed: int = 0
    ) -> dict[str, np.ndarray]:
        """A seeded random float32 input bound to the input name."""
        rng = np.random.default_rng(seed)
        return {self.input_name: rng.random(self.input_shape(sizes), dtype=np.float32)}

    def reference_output(
        self, inputs: Mapping[str, np.ndarray], **params
    ) -> np.ndarray:
        """The NumPy gold output for ``inputs`` (accepts overrides)."""
        merged = {**self.params, **params}
        return np.asarray(self.reference(inputs[self.input_name], **merged))

    def schedule(
        self,
        name: str = DEFAULT_SCHEDULE,
        chunk: int | None = None,
        vec: int | None = None,
        strip: int | None = None,
    ) -> Schedule:
        """A named schedule instantiated for this pipeline's type env."""
        return make_schedule(name, self.type_env(), chunk=chunk, vec=vec, strip=strip)

    def runtime_kind(self, schedule: str) -> str:
        """The cost model's runtime kind for one of this spec's schedules."""
        return self.baselines[schedule][2] if schedule in self.baselines else RISE_KIND


# ----------------------------------------------------------------------
# The catalog.
# ----------------------------------------------------------------------

REGISTRY: dict[str, PipelineSpec] = {}


def register(spec: PipelineSpec) -> PipelineSpec:
    """Add a spec to the catalog; duplicate names are an error."""
    if spec.name in REGISTRY:
        raise ValueError(f"pipeline {spec.name!r} is already registered")
    REGISTRY[spec.name] = spec
    return spec


def names() -> tuple[str, ...]:
    """All registered pipeline names, in registration order."""
    return tuple(REGISTRY)


def get(name: str) -> PipelineSpec:
    """Look up a spec; unknown names raise with the catalog listed."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise KeyError(f"no pipeline {name!r} (known: {known})") from None


def _register_all() -> None:
    from repro.image import reference
    from repro.pipelines import zoo
    from repro.pipelines.harris import harris as harris_expr
    from repro.pipelines.harris import harris_input_type

    register(
        PipelineSpec(
            name="harris",
            title="Harris corner detection",
            description="The paper's case study: grayscale, Sobel "
            "gradients, structure tensor, coarsity (listing 3).",
            build=lambda rgb, kappa=float(reference.HARRIS_KAPPA): harris_expr(
                rgb, kappa=kappa
            ),
            input_name="rgb",
            input_type=harris_input_type,
            reference=lambda rgb, kappa=float(
                reference.HARRIS_KAPPA
            ): reference.harris(rgb, kappa=kappa),
            params={"kappa": float(reference.HARRIS_KAPPA)},
            baselines={
                "halide": ("repro.halide.harris", "build_harris_halide_program", "native"),
                "opencv": (
                    "repro.opencv.pipeline", "build_harris_opencv_program", "library"
                ),
                "lift": ("repro.lift.compile", "build_harris_lift_program", "opencl"),
            },
        )
    )
    register(
        PipelineSpec(
            name="gaussian-blur",
            title="Separable Gaussian blur",
            description="Two chained binomial 3x3 convolutions (an "
            "effective 5x5 Gaussian) with a buffered intermediate stage.",
            build=zoo.gaussian_blur,
            input_name="img",
            input_type=zoo.gaussian_blur_input_type,
            reference=zoo.reference_gaussian_blur,
        )
    )
    register(
        PipelineSpec(
            name="sobel-magnitude",
            title="Sobel gradient magnitude",
            description="Grayscale stage, Sobel x/y stencils, squared "
            "gradient magnitude ix^2 + iy^2.",
            build=zoo.sobel_magnitude_rgb,
            input_name="rgb",
            input_type=zoo.sobel_magnitude_input_type,
            reference=zoo.reference_sobel_magnitude,
        )
    )
    register(
        PipelineSpec(
            name="unsharp-mask",
            title="Unsharp masking",
            description="(1+amount)*center - amount*gaussian over the "
            "grayscale stage; amount=0 is the identity.",
            build=zoo.unsharp_mask,
            input_name="rgb",
            input_type=zoo.unsharp_mask_input_type,
            reference=zoo.reference_unsharp_mask,
            params={"amount": zoo.DEFAULT_UNSHARP_AMOUNT},
        )
    )
    register(
        PipelineSpec(
            name="box-blur",
            title="Box blur",
            description="3x3 neighborhood mean (sum3x3 / 9), the "
            "simplest single-stencil pipeline.",
            build=zoo.box_blur,
            input_name="img",
            input_type=zoo.box_blur_input_type,
            reference=zoo.reference_box_blur,
        )
    )
    register(
        PipelineSpec(
            name="pyramid",
            title="Gaussian downsample pyramid",
            description="Two stride-2 Gaussian levels (blur + decimate "
            "fused into strided stencils).",
            build=zoo.downsample_pyramid,
            input_name="img",
            input_type=zoo.downsample_pyramid_input_type,
            reference=zoo.reference_downsample_pyramid,
        )
    )


_register_all()


# ----------------------------------------------------------------------
# The engine's ``"zoo"`` source.
# ----------------------------------------------------------------------


def build_zoo_program(
    pipeline: str,
    schedule: str = DEFAULT_SCHEDULE,
    chunk: int | None = None,
    vec: int | None = None,
    strip: int | None = None,
    **params,
):
    """Builder behind ``repro.compile("zoo", options={...})``.

    Lowers one registered pipeline under one named schedule — a member
    of the family or one of the spec's baselines — to an
    :class:`~repro.codegen.ir.ImpProgram`.  All options are plain JSON
    values, so every kernel is addressable, and content-addressed,
    through :class:`~repro.engine.request.CompileRequest`.  A baseline
    builder gets the same ``chunk``/``vec`` grid as the family.  A
    family schedule that does not apply to the pipeline raises
    :class:`~repro.strategies.schedules.ScheduleNotApplicable`.
    """
    from repro.codegen.lower import compile_program
    from repro.engine.hashing import strategy_identity
    from repro.observe.core import span

    spec = get(pipeline)
    if schedule in spec.baselines:
        module, attribute, _ = spec.baselines[schedule]
        build = getattr(importlib.import_module(module), attribute)
        return build(
            chunk=chunk if chunk is not None else DEFAULT_CHUNK,
            vec=vec if vec is not None else DEFAULT_VEC,
            **params,
        )
    if schedule not in SCHEDULE_NAMES:
        known = ", ".join((*SCHEDULE_NAMES, *spec.baselines))
        raise KeyError(f"no schedule {schedule!r} for {pipeline!r} (known: {known})")
    env = spec.type_env()
    sched = make_schedule(schedule, env, chunk=chunk, vec=vec, strip=strip)
    with span("elevate.rewrite", strategy=strategy_identity(sched)):
        lowered = sched.apply(spec.expr(**params))
    name = f"zoo_{pipeline}_{schedule}".replace("-", "_")
    return compile_program(lowered, env, name)

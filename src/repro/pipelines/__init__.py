"""Image-processing pipelines expressed in RISE (paper section III).

:mod:`~repro.pipelines.harris` is the paper's case study;
:mod:`~repro.pipelines.zoo` the workloads beyond it, and
:mod:`~repro.pipelines.registry` the catalog every generic consumer
(bench harness, AOT prebuild, autotuner, fuzzer) enumerates.
"""

from repro.pipelines.harris import gaussian3x3, harris, harris_input_type
from repro.pipelines import operators
from repro.pipelines import zoo
from repro.pipelines import registry

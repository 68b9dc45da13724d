"""Expectations the zoo suites share.

``EXPECTED_APPLICABILITY`` is the verified applicability matrix at
chunk 4, vec 4 or 8, strip 2: the family schedules whose compile
succeeds on each registered pipeline.  sobel-magnitude has no separable
post-sharing stencil pair (rotation never fires); pyramid's stride-2
slides violate the unit-step requirement of buffering and rotation.
Every other pair raises ``ScheduleNotApplicable`` naming
``MISSING_MARKER[schedule]``.
"""

EXPECTED_APPLICABILITY = {
    "harris": {"naive", "cbuf", "cbuf-rot", "cbuf-par", "cbuf-rot-par"},
    "gaussian-blur": {"naive", "cbuf", "cbuf-rot", "cbuf-par", "cbuf-rot-par"},
    "sobel-magnitude": {"naive", "cbuf", "cbuf-par"},
    "unsharp-mask": {"naive", "cbuf", "cbuf-rot", "cbuf-par", "cbuf-rot-par"},
    "box-blur": {"naive", "cbuf", "cbuf-rot", "cbuf-par", "cbuf-rot-par"},
    "pyramid": {"naive"},
}

#: The marker whose absence makes a family schedule inapplicable.
MISSING_MARKER = {
    "cbuf": "CircularBuffer",
    "cbuf-par": "CircularBuffer",
    "cbuf-rot": "RotateValues",
    "cbuf-rot-par": "RotateValues",
}

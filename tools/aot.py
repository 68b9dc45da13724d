#!/usr/bin/env python3
"""Install-time AOT prebuild of the serving kernel set.

Compiles the named Harris schedule ladder (naive, cbuf, cbuf+rot and the
strip-parallel forms — the paper's evaluation grid) for each requested
backend into a shared artifact store, then writes ``aot_manifest.json``
at the store root.  ``--zoo`` prebuilds every pipeline in the registry
instead, Harris included, under every schedule that structurally
applies to it.  Kernels are named ``zoo-<pipeline>-<schedule>@<backend>``.
Any serving process pointing at the same store
(``repro.serve.Server`` workers, ``$REPRO_CACHE_DIR`` users) warm-starts
those kernels from disk without running a single compiler phase.

Re-running over a warm store is cheap and idempotent; ``--verify-warm``
additionally *requires* the second-pass property (zero builds) and exits
non-zero if any kernel had to be built — the install-script check that a
deployment image really ships prebuilt.

Exit codes: 0 success, 1 --verify-warm found cold kernels,
2 usage errors (an unknown or unavailable backend among them; nothing
is written then).

Usage:  python tools/aot.py --cache-dir /var/cache/repro
                            [--backends python,c] [--chunk 4] [--vec 4]
                            [--zoo] [--verify-warm] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    """Prebuild the kernel set and write the manifest."""
    from repro.exec import BACKEND_TABLE, available_backends
    from repro.serve.aot import prebuild, zoo_kernel_requests

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cache-dir",
        required=True,
        help="artifact-store root to prebuild into (shared with servers)",
    )
    parser.add_argument(
        "--backends",
        default="python",
        help="comma-separated backends to prebuild (default: %(default)s)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="row-chunk size of the schedule grid (default: the serving "
        "default, 4)",
    )
    parser.add_argument(
        "--vec",
        type=int,
        default=None,
        help="vector width of the schedule grid (default: the bench default)",
    )
    parser.add_argument(
        "--zoo",
        action="store_true",
        help="prebuild every registered pipeline under its applicable "
        "schedules, not only Harris",
    )
    parser.add_argument(
        "--verify-warm",
        action="store_true",
        help="fail (exit 1) if any kernel was actually built — asserts the "
        "store was already fully prebuilt",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the manifest on stdout"
    )
    args = parser.parse_args()

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    available = available_backends()
    unusable = [b for b in backends if b not in available]
    if not backends or unusable:
        print(
            f"aot: --backends {args.backends!r}: "
            + (f"cannot build {', '.join(unusable)}; " if unusable else "")
            + f"known backends: {', '.join(BACKEND_TABLE)} "
            f"(available here: {', '.join(available)})",
            file=sys.stderr,
        )
        return 2

    requests = zoo_kernel_requests(
        backends=backends,
        chunk=args.chunk,
        vec=args.vec,
        pipelines=None if args.zoo else ("harris",),
    )
    manifest = prebuild(args.cache_dir, requests=requests)
    built = [k for k in manifest["kernels"] if k["cache"] == "miss"]
    warm = len(manifest["kernels"]) - len(built)
    if args.json:
        print(json.dumps(manifest, indent=2))
    else:
        for kernel in manifest["kernels"]:
            print(
                f"  {kernel['kernel']:<28} {kernel['cache']:<10} "
                f"{kernel['compile_ms']:9.1f} ms  {kernel['key'][:12]}"
            )
        print(
            f"aot: {len(built)} built, {warm} already warm -> "
            f"{Path(args.cache_dir) / 'aot_manifest.json'}"
        )
    if args.verify_warm and built:
        print(
            f"aot: --verify-warm failed: {len(built)} kernel(s) were cold: "
            + ", ".join(k["kernel"] for k in built),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    List generator algorithms and the GPU catalogue.
``gen``
    Generate random output (hex, raw binary, or NIST sts input formats).
``nist``
    Run the SP 800-22 battery on a generator or an input file —
    ``--workers N`` shards it across a supervised worker fleet
    (``--timeout``/``--retries`` set the per-shard recovery policy).
``fips``
    Run the FIPS 140-2 power-up battery (fast accept/reject gate).
``qa``
    The randomness-QA plugin registry: ``qa list`` (discovered
    plugins), ``qa run`` (battery-capable plugins with NIST
    aggregation), ``qa stream`` (streaming evaluation with latched
    verdicts over a generator or file stream; see DESIGN.md §15).
``selftest``
    Run the startup self-test plus the SP 800-90B continuous health
    tests (Repetition Count / Adaptive Proportion) over a stream.
``throughput``
    Measure the software throughput of one or more algorithms.
``stats``
    Render a telemetry snapshot (JSON/Prometheus/human) — either a
    ``--metrics-out`` file or a fresh instrumented run.
``serve``
    Run the RNG-as-a-service daemon: counter-space leases, streaming
    HTTP endpoints, ``/healthz``/``/metrics``, graceful SIGTERM drain
    (see ``repro.serve`` and DESIGN.md §12).
``top``
    Live ANSI dashboard over a running daemon — polls ``/metrics`` and
    ``/v1/status`` and renders rates, latency quantiles, and the
    per-worker fleet table (see DESIGN.md §14).
``model``
    Query the anchored GPU throughput model (the paper's Figure 10).
``cuda``
    Emit the generated CUDA kernels (paper §4.4).

``gen``, ``nist``, ``throughput``, ``selftest``, ``serve`` and ``fleet``
accept ``--metrics-out PATH``
(write a JSON metrics snapshot) and ``--trace-out PATH`` (write a
Chrome-trace-event JSON viewable in Perfetto), plus the fused-kernel
group ``--fused/--no-fused``, ``--clocks-per-call K`` and ``--dtype
{uint32,uint64}``.  ``repro selftest --fused`` additionally cross-checks
the fused stream byte-for-byte against the per-clock interpreter before
running the health tests.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BSRNG: bitsliced high-throughput random number generation "
        "(ICPP Workshops 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fused_flags(p) -> None:
        p.add_argument(
            "--fused",
            dest="fused",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="use the compiled fused-kernel path "
            "(default: on for bitsliced algorithms; --no-fused forces the "
            "per-clock interpreter)",
        )
        p.add_argument(
            "--clocks-per-call",
            type=int,
            default=32,
            metavar="K",
            help="clocks advanced per fused kernel call (default 32)",
        )
        p.add_argument(
            "--dtype",
            choices=("uint32", "uint64"),
            default="uint64",
            help="lane-packing word width (default uint64)",
        )

    def add_telemetry_flags(p) -> None:
        p.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="write a JSON metrics snapshot (render it with 'repro stats')",
        )
        p.add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help="write a Chrome-trace-event JSON (open in Perfetto)",
        )

    sub.add_parser("info", help="list algorithms and GPU platforms")

    gen = sub.add_parser("gen", help="generate random output")
    gen.add_argument("-a", "--algorithm", default="mickey2")
    gen.add_argument("-s", "--seed", type=int, default=0)
    gen.add_argument("-l", "--lanes", type=int, default=4096)
    gen.add_argument("-n", "--bytes", type=int, default=32, dest="n_bytes")
    gen.add_argument(
        "-f",
        "--format",
        choices=("hex", "raw", "nist-ascii", "nist-binary"),
        default="hex",
    )
    gen.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    gen.add_argument(
        "--health",
        action="store_true",
        help="front the generator with startup + continuous health tests",
    )
    gen.add_argument(
        "--devices",
        type=int,
        default=1,
        help="generate through N supervised worker devices (paper §5.4)",
    )
    gen.add_argument("--retries", type=int, default=2, help="per-partition retry budget")
    gen.add_argument("--timeout", type=float, default=None, help="per-partition timeout (s)")
    add_fused_flags(gen)
    add_telemetry_flags(gen)

    nist = sub.add_parser("nist", help="run the NIST SP 800-22 battery")
    nist.add_argument("-a", "--algorithm", default="mickey2")
    nist.add_argument("-s", "--seed", type=int, default=0)
    nist.add_argument("-l", "--lanes", type=int, default=4096)
    nist.add_argument("--sequences", type=int, default=24)
    nist.add_argument("--bits", type=int, default=100_000)
    nist.add_argument("--input", help="read bits from a raw binary file instead")
    nist.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the battery across N supervised worker processes "
        "(1 = sequential; requires a generator source, not --input)",
    )
    nist.add_argument(
        "--timeout", type=float, default=None, help="per-shard timeout (s)"
    )
    nist.add_argument("--retries", type=int, default=2, help="per-shard retry budget")
    add_fused_flags(nist)
    add_telemetry_flags(nist)

    fips = sub.add_parser("fips", help="FIPS 140-2 power-up battery (20,000 bits)")
    fips.add_argument("-a", "--algorithm", default="mickey2")
    fips.add_argument("-s", "--seed", type=int, default=0)
    fips.add_argument("-l", "--lanes", type=int, default=4096)

    qa = sub.add_parser(
        "qa", help="randomness-QA plugin registry: list, battery run, streaming eval"
    )
    qa_sub = qa.add_subparsers(dest="qa_action", required=True)
    qa_list = qa_sub.add_parser(
        "list", help="list every discovered QA plugin (builtins, entry points, env)"
    )
    qa_list.add_argument("--json", action="store_true", help="machine-readable output")
    qa_run = qa_sub.add_parser(
        "run", help="run battery-capable plugins with NIST-style aggregation"
    )
    qa_run.add_argument("-a", "--algorithm", default="mickey2")
    qa_run.add_argument("-s", "--seed", type=int, default=0)
    qa_run.add_argument("-l", "--lanes", type=int, default=4096)
    qa_run.add_argument("--sequences", type=int, default=24)
    qa_run.add_argument("--bits", type=int, default=100_000)
    qa_run.add_argument(
        "--plugins", default=None, metavar="NAME,NAME",
        help="battery plugin names (default: every battery-capable plugin, "
        "SP 800-22 Table-3 order first)",
    )
    add_fused_flags(qa_run)
    add_telemetry_flags(qa_run)
    qa_stream = qa_sub.add_parser(
        "stream", help="streaming evaluation over a generator or file stream"
    )
    qa_stream.add_argument("-a", "--algorithm", default="mickey2")
    qa_stream.add_argument("-s", "--seed", type=int, default=0)
    qa_stream.add_argument("-l", "--lanes", type=int, default=4096)
    qa_stream.add_argument(
        "-n", "--bytes", type=int, default=1 << 22, dest="n_bytes",
        help="stream length to evaluate (default 4 MiB)",
    )
    qa_stream.add_argument("--input", default=None, help="read the stream from a file")
    qa_stream.add_argument(
        "--window-bytes", type=int, default=1 << 14,
        help="evaluation window (default 16 KiB)",
    )
    qa_stream.add_argument(
        "--chunk-bytes", type=int, default=1 << 16,
        help="feed granularity (results are chunk-split invariant)",
    )
    qa_stream.add_argument(
        "--fail-alpha", type=float, default=None,
        help="per-window failure threshold for all plugins "
        "(default: each plugin's own alpha)",
    )
    qa_stream.add_argument(
        "--sample", type=int, default=1, help="evaluate every K-th window"
    )
    qa_stream.add_argument(
        "--plugins", default=None, metavar="NAME,NAME",
        help="plugin names (default: every streaming-capable plugin)",
    )
    qa_stream.add_argument("--json", action="store_true", help="emit the full status JSON")
    add_fused_flags(qa_stream)
    add_telemetry_flags(qa_stream)

    st = sub.add_parser(
        "selftest", help="startup self-test + SP 800-90B continuous health tests"
    )
    st.add_argument("-a", "--algorithm", default="mickey2")
    st.add_argument("-s", "--seed", type=int, default=0)
    st.add_argument("-l", "--lanes", type=int, default=4096)
    st.add_argument(
        "-n", "--bytes", type=int, default=1 << 20, dest="n_bytes",
        help="continuous-test stream length",
    )
    st.add_argument(
        "--alpha", type=float, default=2.0**-30,
        help="per-test false-positive rate for the cutoff derivation",
    )
    add_fused_flags(st)
    st.add_argument(
        "--cross-check-bytes",
        type=int,
        default=1 << 16,
        metavar="N",
        help="stream length for the fused-vs-unfused cross-check "
        "(run with --fused; 0 disables)",
    )
    add_telemetry_flags(st)

    tp = sub.add_parser("throughput", help="measure software throughput")
    tp.add_argument("algorithms", nargs="*", default=[])
    tp.add_argument("-l", "--lanes", type=int, default=16384)
    tp.add_argument("--mbits", type=float, default=8.0, help="Mbit per measurement")
    add_fused_flags(tp)
    add_telemetry_flags(tp)

    stats = sub.add_parser(
        "stats", help="render a telemetry snapshot (JSON / Prometheus / human)"
    )
    stats.add_argument(
        "input",
        nargs="?",
        default=None,
        help="metrics snapshot JSON written by --metrics-out; "
        "omitted = run a short instrumented generation",
    )
    stats.add_argument(
        "--format",
        choices=("human", "prometheus", "json"),
        default="human",
        dest="fmt",
    )
    stats.add_argument("-a", "--algorithm", default="mickey2")
    stats.add_argument("-s", "--seed", type=int, default=0)
    stats.add_argument("-l", "--lanes", type=int, default=4096)
    stats.add_argument(
        "-n", "--bytes", type=int, default=1 << 20, dest="n_bytes",
        help="bytes to generate in the no-input self-run mode",
    )

    serve = sub.add_parser(
        "serve", help="run the RNG-as-a-service daemon (HTTP, leases, /healthz)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8797, help="listen port (0 = ephemeral)"
    )
    serve.add_argument("-a", "--algorithm", default="trivium")
    serve.add_argument("-s", "--seed", type=int, default=0)
    serve.add_argument("-l", "--lanes", type=int, default=4096)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="size of the heartbeat-supervised worker fleet (heartbeat and "
        "receipt eviction, job reassignment; see DESIGN.md §13); "
        "0 = generate inline, no worker process",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="S",
        help="fleet worker heartbeat period (default 1s)",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=float, default=5.0, metavar="S",
        help="silence past this evicts a fleet worker, so it also bounds "
        "a wedged chunk (default 5s)",
    )
    serve.add_argument(
        "--chunk-bytes", type=int, default=1 << 18,
        help="generation granularity: leases are served from the stream cut "
        "into chunks of this size, one fleet job each (default 256 KiB; "
        "/v1/stream frames default to it, up to 64 KiB)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=4,
        help="chunks in flight per response before backpressure (default 4)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds in-flight requests get after SIGTERM (default 10)",
    )
    serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="lease journal (JSONL); restarting over it resumes allocation",
    )
    serve.add_argument(
        "--no-screen", action="store_true",
        help="disable the SP 800-90B RCT/APT output screen",
    )
    serve.add_argument(
        "--alpha", type=float, default=2.0**-20,
        help="false-positive rate of the service-wide /healthz screen "
        "(default 2^-20), the one RCT/APT screen on every served byte",
    )
    serve.add_argument(
        "--qa", action="store_true",
        help="mount the continuous-QA sidecar: streaming plugin evaluation "
        "over every accepted chunk, latching /healthz on a failed verdict",
    )
    serve.add_argument(
        "--qa-window-bytes", type=int, default=1 << 14, metavar="N",
        help="QA evaluation window (default 16 KiB)",
    )
    serve.add_argument(
        "--qa-alpha", type=float, default=1e-9, metavar="A",
        help="per-window QA failure threshold (default 1e-9 — a served "
        "stream evaluates millions of windows, so the offline alphas "
        "would false-latch)",
    )
    serve.add_argument(
        "--qa-sample", type=int, default=1, metavar="K",
        help="evaluate every K-th QA window (default 1 = all)",
    )
    serve.add_argument(
        "--qa-plugins", default=None, metavar="NAME,NAME",
        help="QA plugin names (default: every streaming-capable plugin)",
    )
    add_fused_flags(serve)
    add_telemetry_flags(serve)

    top = sub.add_parser(
        "top", help="live dashboard over a running serve daemon (/metrics + status)"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8797)
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="poll / redraw period (default 1s)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="print frames sequentially instead of redrawing the screen",
    )

    fleet = sub.add_parser(
        "fleet",
        help="generate through a supervised worker fleet and verify the merge",
    )
    fleet.add_argument("-a", "--algorithm", default="trivium")
    fleet.add_argument("-s", "--seed", type=int, default=0)
    fleet.add_argument("-l", "--lanes", type=int, default=4096)
    fleet.add_argument(
        "-n", "--bytes", type=int, default=1 << 20, dest="n_bytes",
        help="total bytes to generate through the fleet (default 1 MiB)",
    )
    fleet.add_argument("--workers", type=int, default=2, help="fleet size")
    fleet.add_argument(
        "--chunk-bytes", type=int, default=1 << 16,
        help="bytes per fleet job (default 64 KiB)",
    )
    fleet.add_argument(
        "--heartbeat-interval", type=float, default=0.5, metavar="S",
        help="worker heartbeat period (default 0.5s)",
    )
    fleet.add_argument(
        "--heartbeat-timeout", type=float, default=3.0, metavar="S",
        help="silence past this evicts a worker (default 3s)",
    )
    fleet.add_argument(
        "--no-verify", action="store_true",
        help="skip the bit-identity check against a single-device reference",
    )
    fleet.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the merged bytes (default: discard after verification)",
    )
    add_fused_flags(fleet)
    add_telemetry_flags(fleet)

    model = sub.add_parser("model", help="query the GPU throughput model")
    model.add_argument("-k", "--kernel", default="mickey2")
    model.add_argument("-g", "--gpu", default="GTX 2080 Ti")
    model.add_argument("--figure10", action="store_true", help="print the full Figure-10 series")

    cuda = sub.add_parser("cuda", help="emit generated CUDA kernels")
    cuda.add_argument("kernel", choices=("mickey2", "aes-sbox"))
    cuda.add_argument("-o", "--output", default="-")

    return parser


def _fused_kwargs(args) -> dict:
    """BSRNG/engine keyword arguments from the ``--fused`` flag group."""
    return {
        "dtype": np.uint32 if getattr(args, "dtype", "uint64") == "uint32" else np.uint64,
        "fused": getattr(args, "fused", None),
        "clocks_per_call": getattr(args, "clocks_per_call", 32),
    }


def _telemetry(args):
    """Context manager: honour ``--metrics-out`` / ``--trace-out``.

    Enables the corresponding telemetry layer for the body and writes the
    snapshot / Chrome trace on the way out (including early error
    returns, so a failed selftest still leaves its evidence behind).
    """
    from contextlib import contextmanager

    from repro import obs

    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)

    @contextmanager
    def ctx():
        tracer = obs.enable_tracing() if trace_out else None
        if metrics_out:
            obs.enable_metrics()
        try:
            yield
        finally:
            if metrics_out:
                obs.write_snapshot(obs.registry().snapshot(), metrics_out)
                obs.disable_metrics()
            if tracer is not None:
                tracer.write(trace_out)
                obs.disable_tracing()

    return ctx()


def _cmd_info(_args) -> int:
    from repro.core.generator import available_algorithms
    from repro.gpu.specs import GPU_CATALOGUE

    print("algorithms:")
    for name, desc in available_algorithms().items():
        print(f"  {name:<18} {desc}")
    print("\nGPU catalogue (paper Tables 1-2):")
    for g in GPU_CATALOGUE.values():
        print(
            f"  {g.name:<12} {g.year}  {g.sp_gflops:>8.0f} SP GFLOPS  "
            f"{g.mem_bw_gbs:>6.0f} GB/s"
        )
    return 0


def _cmd_gen(args) -> int:
    from repro.bitio.bits import bits_from_bytes
    from repro.bitio.streams import write_nist_ascii, write_nist_binary
    from repro.core.generator import BSRNG
    from repro.obs import span

    with _telemetry(args), span(
        "gen", algo=args.algorithm, n_bytes=args.n_bytes, devices=args.devices
    ):
        if args.devices > 1:
            # supervised multi-device path: block-granular partitioning, so
            # round the byte count up to whole blocks and trim
            from repro.gpu.multigpu import MultiDeviceGenerator

            block_bytes = 1 << 12
            gen = MultiDeviceGenerator(
                args.algorithm,
                seed=args.seed,
                lanes=args.lanes,
                n_devices=args.devices,
                block_bytes=block_bytes,
                timeout=args.timeout,
                max_retries=args.retries,
                fused=args.fused,
                clocks_per_call=args.clocks_per_call,
            )
            data = gen.generate(-(-args.n_bytes // block_bytes))[: args.n_bytes]
        elif args.health:
            from repro.robust.health import HealthMonitoredBSRNG

            inner = BSRNG(args.algorithm, seed=args.seed, lanes=args.lanes, **_fused_kwargs(args))
            rng = HealthMonitoredBSRNG(inner)
            data = rng.random_bytes(args.n_bytes)
            rng.inner.publish_metrics()
        else:
            rng = BSRNG(args.algorithm, seed=args.seed, lanes=args.lanes, **_fused_kwargs(args))
            data = rng.random_bytes(args.n_bytes)
            rng.publish_metrics()
    if args.format == "hex":
        payload = data.hex().encode() + b"\n"
    elif args.format == "raw":
        payload = data
    elif args.format == "nist-ascii":
        import io

        buf = io.StringIO()
        write_nist_ascii(bits_from_bytes(data), buf)
        payload = buf.getvalue().encode()
    else:  # nist-binary
        payload = data  # little-bit-order packed == our byte stream
    if args.output == "-":
        sys.stdout.buffer.write(payload)
    else:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    return 0


def _cmd_nist(args) -> int:
    from repro.bitio.bits import bits_from_bytes
    from repro.core.generator import BSRNG
    from repro.nist import run_suite, run_suite_parallel
    from repro.obs import span

    workers = args.workers
    if args.input and workers > 1:
        print(
            "--workers needs a generator source (workers regenerate their "
            "sequence chunks); running the file battery sequentially",
            file=sys.stderr,
        )
        workers = 1
    with _telemetry(args), span(
        "nist", algo=args.algorithm, sequences=args.sequences, workers=workers
    ):
        if args.input:
            raw = open(args.input, "rb").read()
            bits = bits_from_bytes(raw)
            per_seq = bits.size // args.sequences
            if per_seq == 0:
                print("input too short for the requested sequence count", file=sys.stderr)
                return 2
            source = lambda i: bits[i * per_seq : (i + 1) * per_seq]  # noqa: E731
            n_bits = per_seq
        else:
            n_bits = args.bits
        print(
            f"NIST SP 800-22: {args.sequences} sequences x {n_bits:,} bits "
            f"({'file ' + args.input if args.input else args.algorithm})"
            + (f", {workers} workers" if workers > 1 else "")
        )
        if workers > 1:
            report = run_suite_parallel(
                args.algorithm,
                seed=args.seed,
                lanes=args.lanes,
                n_sequences=args.sequences,
                n_bits=n_bits,
                workers=workers,
                timeout=args.timeout,
                max_retries=args.retries,
                **_fused_kwargs(args),
            )
        elif args.input:
            report = run_suite(source, args.sequences)
        else:
            rng = BSRNG(args.algorithm, seed=args.seed, lanes=args.lanes, **_fused_kwargs(args))
            report = run_suite(lambda i: rng.random_bits(n_bits), args.sequences)
    print(report.to_table())
    sup = report.supervision
    if sup is not None and (sup.events or sup.degraded):
        print(
            f"\nsupervision: {len(sup.attempts)} shards, "
            f"{len(sup.retried_partitions)} retried, degraded: {sup.degraded}"
        )
        for event in sup.events:
            print(f"  shard {event.partition} attempt {event.attempt}: {event.kind}")
    print(f"\nall passed: {report.all_passed}")
    return 0 if report.all_passed else 1


def _cmd_fips(args) -> int:
    from repro.core.generator import BSRNG
    from repro.nist import fips140_battery
    from repro.nist.fips140 import BLOCK_BITS

    rng = BSRNG(args.algorithm, seed=args.seed, lanes=args.lanes)
    report = fips140_battery(rng.random_bits(BLOCK_BITS))
    print(f"FIPS 140-2 on {args.algorithm} (seed={args.seed}):")
    print(report.to_table())
    return 0 if report.passed else 1


def _cmd_selftest(args) -> int:
    from repro.errors import HealthTestError
    from repro.obs import span
    from repro.robust.health import HealthMonitoredBSRNG

    from repro.core.generator import BSRNG

    print(f"self-test: {args.algorithm} (seed={args.seed}, alpha={args.alpha:.3g})")
    with _telemetry(args), span("selftest", algo=args.algorithm):
        if args.fused and args.cross_check_bytes > 0:
            # --fused cross-check mode: the fused compiled kernels must
            # reproduce the interpreter stream byte for byte before we
            # trust them with the health-tested output path.
            n = args.cross_check_bytes
            kw = _fused_kwargs(args)
            fused_rng = BSRNG(args.algorithm, seed=args.seed, lanes=args.lanes, **kw)
            kw = dict(kw, fused=False)
            plain_rng = BSRNG(args.algorithm, seed=args.seed, lanes=args.lanes, **kw)
            with span("selftest.fused_crosscheck", algo=args.algorithm, n_bytes=n):
                if fused_rng.random_bytes(n) != plain_rng.random_bytes(n):
                    print(f"fused cross-check over {n:,} bytes: FAIL (stream mismatch)")
                    return 1
            print(f"fused cross-check over {n:,} bytes: pass (fused == unfused)")
        try:
            mon = HealthMonitoredBSRNG(
                BSRNG(args.algorithm, seed=args.seed, lanes=args.lanes, **_fused_kwargs(args)),
                alpha=args.alpha,
            )
        except HealthTestError as exc:
            print(f"startup self-test: FAIL ({exc})")
            return 1
        print("startup self-test (FIPS 140-2, 20,000 bits): pass")
        print(f"  {mon.startup_report.to_table()}".replace("\n", "\n  "))
        screener = mon.health.screener
        print(
            f"continuous tests: RCT cutoff {screener.rct.cutoff}, "
            f"APT cutoff {screener.apt.cutoff}/{screener.apt.window}"
        )
        chunk = 1 << 16
        remaining = args.n_bytes
        try:
            while remaining > 0:
                mon.random_bytes(min(chunk, remaining))
                remaining -= chunk
        except HealthTestError as exc:
            print(f"continuous health tests: FAIL ({exc})")
            return 1
        finally:
            mon.inner.publish_metrics()
        print(f"continuous health tests over {mon.health.bytes_screened:,} bytes: pass")
    return 0


def _cmd_throughput(args) -> int:
    from repro import obs
    from repro.core.generator import BSRNG, available_algorithms
    from repro.obs import span

    algorithms = args.algorithms or list(available_algorithms())
    # Draw in chunks until enough wall time has elapsed: buffered refills
    # then amortise out instead of letting one pre-filled buffer masquerade
    # as generator throughput.
    chunk = 1 << 20
    min_seconds = max(args.mbits / 100.0, 0.25)
    print(f"{'algorithm':<18}{'Mbit/s':>10}")
    print("-" * 28)
    with _telemetry(args):
        for alg in algorithms:
            rng = BSRNG(alg, seed=1, lanes=args.lanes, **_fused_kwargs(args))
            total = 0
            with span("throughput.measure", algo=alg):
                t0 = time.perf_counter()
                while (elapsed := time.perf_counter() - t0) < min_seconds:
                    rng.random_bytes(chunk)
                    total += chunk
            mbit_s = 8 * total / elapsed / 1e6
            obs.set_gauge("repro_throughput_mbit_s", round(mbit_s, 1), algorithm=alg)
            rng.publish_metrics()
            print(f"{alg:<18}{mbit_s:>10.1f}")
    return 0


def _cmd_stats(args) -> int:
    from repro import obs

    if args.input:
        snap = obs.load_snapshot(args.input)
    else:
        # self-run mode: a short fully-instrumented generation, so
        # `repro stats` with no arguments always has something to show
        from repro.core.generator import BSRNG

        with obs.scoped() as reg:
            with obs.span("stats.selfrun", algo=args.algorithm):
                rng = BSRNG(args.algorithm, seed=args.seed, lanes=args.lanes)
                rng.random_bytes(args.n_bytes)
                rng.publish_metrics()
            snap = reg.snapshot()
    obs.dump(snap, args.fmt, sys.stdout)
    return 0


def _cmd_qa(args) -> int:
    import json

    from repro.qa import default_registry

    registry = default_registry()
    if args.qa_action == "list":
        rows = registry.describe()
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        print(
            f"{'Name':<26}{'Family':<11}{'Min bits':>9}{'Cost':>7}"
            f"  {'Battery':<8}{'Stream':<7}Source"
        )
        print("-" * 78)
        for row in rows:
            print(
                f"{row['name']:<26}{row['family']:<11}{row['min_bits']:>9}"
                f"{row['cost']:>7.1f}  {str(row['battery']):<8}"
                f"{str(row['streaming']):<7}{row['source']}"
            )
        return 0

    if args.qa_action == "run":
        from repro.core.generator import BSRNG
        from repro.qa import run_battery
        from repro.qa.registry import battery_order, resolve_battery_plugin

        names = (
            [n.strip() for n in args.plugins.split(",") if n.strip()]
            if args.plugins
            else battery_order()
        )
        plugins = [resolve_battery_plugin(n) for n in names]
        print(
            f"QA battery: {args.sequences} sequences x {args.bits:,} bits "
            f"({args.algorithm}), {len(plugins)} plugins"
        )
        with _telemetry(args):
            rng = BSRNG(
                args.algorithm, seed=args.seed, lanes=args.lanes, **_fused_kwargs(args)
            )
            report = run_battery(
                lambda i: rng.random_bits(args.bits), args.sequences, plugins
            )
        print(report.to_table())
        print(f"\nall passed: {report.all_passed}")
        return 0 if report.all_passed else 1

    # qa stream
    from repro.qa import StreamingEvaluator

    if args.plugins:
        plugins = [registry.get(n.strip()) for n in args.plugins.split(",") if n.strip()]
    else:
        plugins = registry.select(streaming=True)
    evaluator = StreamingEvaluator(
        plugins,
        window_bytes=args.window_bytes,
        fail_alpha=args.fail_alpha,
        sample=args.sample,
    )
    with _telemetry(args):
        if args.input:
            with open(args.input, "rb") as fh:
                while True:
                    chunk = fh.read(args.chunk_bytes)
                    if not chunk:
                        break
                    evaluator.feed(chunk)
        else:
            from repro.core.generator import BSRNG

            rng = BSRNG(
                args.algorithm, seed=args.seed, lanes=args.lanes, **_fused_kwargs(args)
            )
            remaining = args.n_bytes
            while remaining > 0:
                take = min(args.chunk_bytes, remaining)
                evaluator.feed(rng.read(take))
                remaining -= take
    status = evaluator.status()
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        print(
            f"QA stream: {status['bytes_seen']:,} bytes, "
            f"{status['windows_seen']} windows of {status['window_bytes']:,} bytes"
        )
        print(f"{'Plugin':<26}{'Windows':>8}{'Skips':>7}{'Fails':>7}{'Min p':>12}  Verdict")
        print("-" * 70)
        for name, row in status["plugins"].items():
            min_p = "-" if row["min_p"] is None else f"{row['min_p']:.2e}"
            verdict = "LATCHED" if row["latched"] else ("ok" if row["eligible"] else "skipped")
            print(
                f"{name:<26}{row['windows']:>8}{row['skips']:>7}"
                f"{row['failures']:>7}{min_p:>12}  {verdict}"
            )
    print(f"\nhealthy: {evaluator.healthy}")
    return 0 if evaluator.healthy else 1


def _stream_config(args):
    """The served stream's :class:`~repro.serve.engine.StreamConfig` from CLI args."""
    from repro.serve.engine import StreamConfig

    return StreamConfig(
        algorithm=args.algorithm,
        seed=args.seed,
        lanes=args.lanes,
        dtype=args.dtype,
        fused=args.fused,
        clocks_per_call=args.clocks_per_call,
    )


def _cmd_serve(args) -> int:
    import asyncio
    import logging

    from repro.fleet import FleetConfig
    from repro.serve import DaemonConfig, ServeDaemon, ServeEngine

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    stream = _stream_config(args)
    qa_sidecar = None
    if args.qa:
        from repro.qa import QASidecar, StreamingEvaluator, default_registry

        registry = default_registry()
        if args.qa_plugins:
            qa_plugins = [
                registry.get(n.strip()) for n in args.qa_plugins.split(",") if n.strip()
            ]
        else:
            qa_plugins = registry.select(streaming=True)
        qa_sidecar = QASidecar(
            StreamingEvaluator(
                qa_plugins,
                window_bytes=args.qa_window_bytes,
                fail_alpha=args.qa_alpha,
                sample=args.qa_sample,
            )
        )
    engine = ServeEngine(
        stream,
        workers=args.workers,
        screen=not args.no_screen,
        alpha=args.alpha,
        fleet=FleetConfig(
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
        ),
        qa=qa_sidecar,
    )
    daemon = ServeDaemon(
        engine,
        DaemonConfig(
            host=args.host,
            port=args.port,
            chunk_bytes=args.chunk_bytes,
            queue_depth=args.queue_depth,
            drain_grace=args.drain_grace,
            journal_path=args.journal,
        ),
    )

    def on_started() -> None:
        # parseable readiness line: supervisors and the smoke test key on it
        print(
            f"repro-serve listening on {daemon.config.host}:{daemon.bound_port}",
            flush=True,
        )

    with _telemetry(args):
        asyncio.run(daemon.run(install_signal_handlers=True, on_started=on_started))
    return 0


def _cmd_top(args) -> int:
    from repro.obs.dashboard import run_top

    return run_top(
        host=args.host,
        port=args.port,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


def _cmd_fleet(args) -> int:
    import time as _time

    from repro.fleet import FleetConfig, FleetController
    from repro.obs import span

    stream = _stream_config(args)
    config = FleetConfig(
        workers=args.workers,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        chunk_bytes=args.chunk_bytes,
    )
    print(
        f"fleet: {args.workers} workers x {args.algorithm} "
        f"(seed={args.seed}, lanes={args.lanes}), "
        f"{args.n_bytes:,} bytes in {args.chunk_bytes:,}-byte jobs"
    )
    with _telemetry(args), span("fleet", algo=args.algorithm, n=args.n_bytes):
        controller = FleetController(stream, config)
        controller.start()
        try:
            t0 = _time.perf_counter()
            data = controller.read_range(0, args.n_bytes)
            wall = _time.perf_counter() - t0
            status = controller.status()
        finally:
            controller.close()
    gbps = args.n_bytes * 8 / wall / 1e9 if wall > 0 else float("inf")
    print(f"generated {len(data):,} bytes in {wall:.3f}s ({gbps:.3f} Gbit/s)")
    counters = status["counters"]
    print(
        "membership: "
        + ", ".join(f"{w['worker_id']}:{w['state']}" for w in status["workers"])
    )
    print(
        f"evictions: {counters['evictions']}, "
        f"reassignments: {counters['reassignments']}, "
        f"stale results: {counters['stale_results']}, "
        f"degraded chunks: {counters['degraded_chunks']}"
    )
    for event in status["events"]:
        if event["kind"] in ("evict", "degrade"):
            print(f"  [{event['at']:.3f}] {event['kind']} worker {event['worker_id']}: {event['detail']}")
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
        print(f"wrote {args.output}")
    if not args.no_verify:
        reference = stream.make_rng().random_bytes(args.n_bytes)
        if data != reference:
            print("FAIL: fleet merge differs from the single-device stream")
            return 1
        print("verified: bit-identical to the single-device stream")
    return 0


def _cmd_model(args) -> int:
    from repro.gpu.model import ThroughputModel
    from repro.gpu.specs import TABLE2_GPUS

    model = ThroughputModel()
    if args.figure10:
        series = model.figure10_series()
        print(f"{'kernel':<12}" + "".join(f"{g:>14}" for g in TABLE2_GPUS))
        for k, row in series.items():
            print(f"{k:<12}" + "".join(f"{row[g]:>14.0f}" for g in TABLE2_GPUS))
        print("(modeled Gbit/s)")
    else:
        gbps = model.predict_gbps(args.kernel, args.gpu)
        print(f"{args.kernel} on {args.gpu}: {gbps:.0f} Gbit/s (modeled)")
    return 0


def _cmd_cuda(args) -> int:
    if args.kernel == "mickey2":
        from repro.ciphers.mickey_circuit import mickey_cuda_source

        src = mickey_cuda_source()
    else:
        from repro.ciphers.aes_bitsliced import sbox_circuit
        from repro.codegen import emit_cuda

        src = emit_cuda(sbox_circuit(), func_name="aes_sbox")
    if args.output == "-":
        sys.stdout.write(src)
    else:
        with open(args.output, "w") as fh:
            fh.write(src)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "gen": _cmd_gen,
    "nist": _cmd_nist,
    "fips": _cmd_fips,
    "qa": _cmd_qa,
    "selftest": _cmd_selftest,
    "throughput": _cmd_throughput,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "fleet": _cmd_fleet,
    "model": _cmd_model,
    "cuda": _cmd_cuda,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

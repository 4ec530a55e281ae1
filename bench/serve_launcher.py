"""Boot one ``BaseStationServer`` for the wire workload (subprocess).

Started by ``bench/workloads.py``; prints one ``READY`` line (a JSON
object with the bound port and the simulated time the warm-up reached)
once the socket is listening, serves until stdin closes, then prints
one ``DONE`` line with end-of-run state.  With ``--trace`` the timing
shims of ``bench/tracing.py`` are installed inside this process after
the warm-up, and the span file is written before ``DONE``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


async def serve(args: argparse.Namespace) -> None:
    from repro.serve import BaseStationServer, ServeConfig
    from repro.workloads import RIVERSIDE_COUNTY, scaled_parameters

    import tracing

    params = scaled_parameters(RIVERSIDE_COUNTY, area_scale=args.scale)
    server = BaseStationServer(
        params, seed=args.seed, config=ServeConfig(warmup_queries=args.warmup)
    )
    await server.start()
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        recorder.install()
    print(
        "READY " + json.dumps({"port": server.port, "sim_time": server.sim_time}),
        flush=True,
    )
    loop = asyncio.get_running_loop()
    try:
        # The parent closes our stdin to say the run is over.
        await loop.run_in_executor(None, sys.stdin.read)
    finally:
        await server.stop()
    done: dict = {
        "counters": server.snapshot(),
        "cache": tracing.cache_state(h.cache for h in server.sim.hosts),
    }
    if recorder is not None:
        recorder.uninstall()
        # The server idles between requests: the window the layer
        # shares refer to is the time spent inside execute_query.
        busy = float(recorder.root_durations().sum())
        done["layers"] = tracing.layer_metrics(recorder, busy)
        recorder.write_jsonl(args.trace)
    print("DONE " + json.dumps(done), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--trace", default="", help="span file to write")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()

"""The ``serve_mixed`` workload: jobs against a live ``vase serve``.

One round is one fresh server process (``--port 0 --no-ledger
--workers 2``, a temporary working directory inside ``bench/out``)
and a fixed number of jobs.  One closed-loop client POSTs a job,
follows its SSE stream to the ``end`` frame, fetches and checks its
artifacts, then sends the next one.  A second client would time the
overlap of two jobs on the host's cores, not the served round trip:
on a shared 2-vCPU host its latency spread 17-30 % from run to run,
against 6-9 % with one.  The job count per round is fixed because a
server's latency drifts upward as its job table fills, so a round must
not grow when the server gets faster.

The mix: each job picks a seeded Table-1 application.  Half the jobs
send the application's canonical source, which the round primed into
the shared artifact cache (warm); the other half prepend a unique
``-- bench job`` comment, so every stage computes (cold).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.apps import ALL_APPLICATIONS
from repro.flow import synthesize
from repro.serve.sse import END_EVENT, parse_sse
from repro.spice import to_spice_deck

#: jobs per round (see the module docstring for why it is fixed)
JOBS_PER_ROUND = 200
#: seconds any one HTTP exchange or server start may take
TIMEOUT_S = 60.0
#: the source tree the server imports, whatever its working directory
SRC = Path(repro.__file__).resolve().parents[1]


def _proc_fields(pid: int) -> Tuple[float, float]:
    """(CPU seconds used, peak RSS in MB) of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5); the split
    # starts at field 3.
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    rss_mb = 0.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                rss_mb = int(line.split()[1]) / 1024.0
    return cpu, rss_mb


class ServeRound:
    """One server process, its priming, and one round of jobs."""

    def __init__(self, out_dir: Path, seed: int, round_index: int):
        self.rng = random.Random(f"serve_mixed/{seed}/{round_index}")
        self.tag = f"{seed}-{round_index}"
        self.workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.stderr_tail: List[str] = []
        self._drain: Optional[threading.Thread] = None
        self.oracle: Dict[str, Tuple[str, str]] = {}

    # -- set-up --------------------------------------------------------------

    def start(self) -> None:
        """Spawn the server, build the oracle, prime the cache."""
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--no-ledger", "--workers", "2"],
            cwd=self.workdir, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        # While the server imports, synthesize the oracle artifacts.
        for name, module in ALL_APPLICATIONS.items():
            netlist = synthesize(module.VASS_SOURCE).netlist
            self.oracle[name] = (
                netlist.describe() + "\n", to_spice_deck(netlist)
            )
        for line in self.server.stderr:
            self.stderr_tail.append(line)
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1].split()[0]
                                .rsplit(":", 1)[1])
                break
        if not self.port:
            raise RuntimeError(
                "vase serve did not start:\n" + "".join(self.stderr_tail)
            )
        self._drain = threading.Thread(target=self._drain_stderr,
                                       daemon=True)
        self._drain.start()
        deadline = time.monotonic() + TIMEOUT_S
        while self._request("GET", "/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("vase serve never became healthy")
            time.sleep(0.01)
        for name, module in ALL_APPLICATIONS.items():
            record = self._job(-1, name, module.VASS_SOURCE, traced=False)
            if not record["ok"]:
                raise RuntimeError(f"priming job for {name} failed: "
                                   f"{record.get('error')}")

    def _drain_stderr(self) -> None:
        for line in self.server.stderr:
            self.stderr_tail = (self.stderr_tail + [line])[-20:]

    # -- HTTP ------------------------------------------------------------------

    def _request(self, method: str, path: str, body: Optional[dict] = None):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=TIMEOUT_S
        )
        try:
            headers = {}
            payload = None
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except OSError:
            return None, b""
        finally:
            connection.close()

    def _stream(self, job_id: str):
        """Follow the job's SSE stream: (first data frame time, data
        frames, final status, end frame time)."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=TIMEOUT_S
        )
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            first, frames = None, 0
            lines = (raw.decode("utf-8") for raw in response)
            for message in parse_sse(lines):
                if message.event == END_EVENT:
                    status = json.loads(message.data)["status"]
                    return first, frames, status, time.perf_counter()
                if message.data:
                    frames += 1
                    if first is None:
                        first = time.perf_counter()
            raise RuntimeError(f"stream of job {job_id} ended without "
                               "an end frame")
        finally:
            connection.close()

    def _job(self, index: int, app: str, source: str, traced: bool) -> dict:
        """One job from POST to the end frame, then its oracle check."""
        record: dict = {"index": index, "ok": False}
        started = time.perf_counter()
        try:
            status, body = self._request(
                "POST", "/jobs", {"source": source, "label": f"bench-{index}"}
            )
            if status != 202:
                raise RuntimeError(f"POST /jobs answered {status}: {body!r}")
            job_id = json.loads(body)["id"]
            first, frames, final, ended = self._stream(job_id)
            record.update(
                latency_s=ended - started,
                ttfe_s=first - started,
                frames=frames,
            )
            netlist, deck = self.oracle[app]
            served = (
                self._request("GET", f"/jobs/{job_id}/netlist")[1],
                self._request("GET", f"/jobs/{job_id}/spice")[1],
            )
            record["ok"] = final == "ok" and served == (
                netlist.encode("utf-8"), deck.encode("utf-8")
            )
            if not record["ok"]:
                record["error"] = f"status {final}, artifacts differ"
            if traced:
                info = json.loads(self._request("GET", f"/jobs/{job_id}")[1])
                record.update(
                    queue_wait_s=info["started_ts"] - info["created_ts"],
                    run_s=info["finished_ts"] - info["started_ts"],
                    server_s=info["finished_ts"] - info["created_ts"],
                )
        except (OSError, RuntimeError, ValueError, KeyError) as err:
            record["error"] = repr(err)
            record.setdefault("latency_s", time.perf_counter() - started)
        return record

    def _cache_counts(self) -> Tuple[float, float]:
        """(hits, misses) of the shared artifact cache, from /metrics."""
        text = self._request("GET", "/metrics")[1].decode("utf-8")
        values = {}
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            if name in ("vase_pipeline_cache_hit_total",
                        "vase_pipeline_cache_miss_total"):
                values[name] = float(value)
        return (values.get("vase_pipeline_cache_hit_total", 0.0),
                values.get("vase_pipeline_cache_miss_total", 0.0))

    # -- the round -------------------------------------------------------------

    def plan(self) -> List[Tuple[int, str, str, str]]:
        """The round's seeded jobs: (index, input key, app, source)."""
        apps = list(ALL_APPLICATIONS)
        jobs = []
        for index in range(JOBS_PER_ROUND):
            app = self.rng.choice(apps)
            source = ALL_APPLICATIONS[app].VASS_SOURCE
            if self.rng.random() < 0.5:
                jobs.append((index, f"{app}/warm", app, source))
            else:
                header = f"-- bench job {self.tag}-{index}\n"
                jobs.append((index, f"{app}/cold", app, header + source))
        return jobs

    def measure(self, traced: bool) -> dict:
        """Run the round's jobs one after another."""
        records: List[dict] = []
        cpu_before, _ = _proc_fields(self.server.pid)
        cache_before = self._cache_counts() if traced else (0.0, 0.0)
        started = time.perf_counter()
        for index, key, app, source in self.plan():
            record = self._job(index, app, source, traced)
            record["key"] = key
            records.append(record)
        wall = time.perf_counter() - started
        cpu_after, rss_mb = _proc_fields(self.server.pid)
        result = {"records": records, "wall_s": wall, "rss_mb": rss_mb}
        if traced:
            hits, misses = self._cache_counts()
            result.update(
                cpu_s=cpu_after - cpu_before,
                cache_hits=hits - cache_before[0],
                cache_misses=misses - cache_before[1],
            )
        return result

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Shut the server down gracefully (kill it if it hangs)."""
        try:
            if self.server is not None and self.server.poll() is None:
                if self.port:
                    self._request("POST", "/shutdown")
                try:
                    self.server.wait(timeout=TIMEOUT_S if self.port else 0)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
            if self._drain is not None:
                self._drain.join(timeout=TIMEOUT_S)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

#!/usr/bin/env python3
"""ontorag benchmark: one seeded workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload store-qa --seed 0 --seconds 55 --trace 0

The benchmark imports ontorag from ``src/`` of that checkout, writes its
generated inputs and the program's outputs under ``perfbench/_work/`` and
deletes them on exit. It repeats the workload's CLI session until
``--seconds`` have passed (stopping between two steps; a traced run
finishes its session), checks every output, and prints, last, one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. The line before it
records the inputs and the environment. With ``--trace 0`` the metrics are
the end-to-end ones in ``BENCHMARK.json``; with ``--trace 1`` sessions
alternate untraced and traced, and the metrics are the per-layer ones
(see ``tracing.py``) plus the tracing overhead.

See ``README.md`` in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# One BLAS thread, fixed before numpy loads. An OpenBLAS worker spins on the
# other core between calls, and load on that core slowed this one's Python
# by up to 40 % on a two-vCPU machine; the import probe inherits the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracles  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import ASKED, DIM, LIGHT, LOOP_SLICE, TOP_K, WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens.json"
ANY_SEED = "any"  # goldens.json key of outputs that do not depend on the seed
SETUP_REPS = 15
LATENCY_BLOCK = 300  # closed-loop questions per p90 sample
ORACLE_SAMPLE = 400
# A command's traced self times may differ from its wall time by the
# wrapper's own entry and exit, a few microseconds.
TRACE_SLACK_MS = 1.0
TRACE_SLACK = 0.01
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import ontorag.cli; print(time.perf_counter() - t)"
)
# Wall times of whole commands, one sample per command run.
COMMAND_TIMES = ("align_s", "subsume_s", "dict_s", "ingest_s", "ask_cmd_ms", "import_ms", "eval_s")
# Every session must have added to each of these before a run may stop.
SAMPLED = (*COMMAND_TIMES, "ask_ms")
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("align_s", "s"),
    ("subsume_s", "s"),
    ("dict_s", "s"),
    ("ingest_s", "s"),
    ("ask_cmd_ms", "ms"),
    ("ask_p50_ms", "ms"),
    ("ask_p90_ms", "ms"),
    ("import_ms", "ms"),
    ("eval_s", "s"),
)


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def fixture_classes(obo: str, ontology_json: str) -> tuple[list, list]:
    """(label, synonyms) per class of the two bundled ontologies."""
    source = []
    for stanza in obo.split("[Term]")[1:]:
        name = re.search(r"^name: (.*)$", stanza, re.M)
        source.append((name.group(1) if name else "", re.findall(r'^synonym: "([^"]*)"', stanza, re.M)))
    target = [(c.get("label", ""), c.get("synonyms", [])) for c in json.loads(ontology_json)["classes"]]
    return source, target


class Bench:
    """One workload at one seed: inputs, the timed session, and its checks."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        import ontorag.cli
        import ontorag.engine
        import ontorag.ragstore
        import ontorag.subsume
        from ontorag.fixtures import export_fixtures

        self.cli = ontorag.cli
        self.engine = ontorag.engine
        self.ragstore = ontorag.ragstore
        self.subsume = ontorag.subsume
        self.export_fixtures = export_fixtures
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.dir = workdir
        goldens = json.loads(GOLDENS.read_text()).get(workload, {}) if GOLDENS.exists() else {}
        self.goldens = {**goldens.get(ANY_SEED, {}), **goldens.get(str(seed), {})}
        self.unchecked: list[str] = []  # outputs with no golden for this seed
        self.first_output: dict[str, str] = {}
        self.first_answers: dict[str, tuple] = {}
        self.asked: dict[str, str] = {}
        self.asks = 0
        self.looped = 0
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.oracle: oracles.RankingOracle | None = None
        self.tracer: Tracer | None = None

    # ----------------------------------------------------------- inputs

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def generate(self) -> str:
        """Write every input file; returns a digest of all of them."""
        rng = np.random.default_rng(self.seed)
        fx = self.dir / "fixtures"
        self.export_fixtures(str(fx))
        handbook = (fx / "handbook.txt").read_text()
        fixture_records = [json.loads(line) for line in (fx / "questions.jsonl").read_text().splitlines() if line]
        obo, ontology_json = (fx / "symptoms.obo").read_text(), (fx / "clinical_signs.json").read_text()
        fixture_cls = fixture_classes(obo, ontology_json)
        w = self.w
        files: dict[str, str] = {}
        if w.classes:
            self.pair = gen.ontology_pair(rng, w.classes)
            files["source.obo"], files["target.json"] = self.pair["source_obo"], self.pair["target_json"]
            s_cls = list(zip(self.pair["s_labels"], self.pair["s_synonyms"]))
            t_cls = list(zip(self.pair["t_labels"], self.pair["t_synonyms"]))
        else:
            self.pair = None
            files["source.obo"], files["target.json"] = obo, ontology_json
            s_cls, t_cls = fixture_cls
        self.classes = (s_cls, t_cls)
        filler = gen.pseudo_words(rng, 200)
        if w.chunks:
            phrases = sorted({oracles.normalize(t) for label, syns in fixture_cls[1] for t in [label, *syns]})
            n_docs = max(1, w.chunks // 400)
            docs = gen.documents(rng, handbook, phrases, n_docs, (w.chunks // n_docs) * oracles.CHUNK_STEP)
            self.docs = {f"doc{i:03d}": text for i, text in enumerate(docs)}
        else:
            self.docs = {"handbook": handbook}
        for doc_id, text in self.docs.items():
            files[f"{doc_id}.txt"] = text
        files["records.jsonl"] = "".join(json.dumps(r) + "\n" for r in fixture_records)
        self.records = fixture_records
        if w.chunks:
            self.questions = [r["prompt"] for r in gen.varied_questions(rng, fixture_records, filler, w.questions)]
        else:
            self.questions = [fixture_records[i % len(fixture_records)]["prompt"] for i in range(w.questions)]
        digest = hashlib.sha256()
        for name in sorted(files):
            with open(self.path(name), "w", encoding="utf-8") as fh:
                fh.write(files[name])
            digest.update(name.encode() + b"\0" + files[name].encode())
        return digest.hexdigest()

    def setup(self) -> float:
        """Generate and warm up SETUP_REPS times; median seconds."""
        times, digests = [], set()
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            digests.add(self.generate())
            self.warm_up()
            times.append(perf_counter() - t0)
        if len(digests) != 1:
            raise SystemExit("error: the input generator is not deterministic")
        return statistics.median(times)

    def warm_up(self) -> None:
        """Every command once on the bundled fixtures; results are discarded."""
        fx = self.dir / "fixtures"
        warm = self.dir / "warm"
        warm.mkdir(exist_ok=True)
        src, tgt = str(fx / "symptoms.obo"), str(fx / "clinical_signs.json")
        store, dictionary = str(warm / "store.jsonl"), str(warm / "dict.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(store)
        for argv in (
            ["align", "--source", src, "--target", tgt, "--out", str(warm / "m.tsv")],
            ["subsume", "--source", src, "--target", tgt, "--mappings", str(warm / "m.tsv"), "--out", str(warm / "c.tsv")],
            ["dict", "--source", src, "--target", tgt, "--corpus", str(warm / "c.tsv"), "--out", dictionary],
            ["ingest", "--store", store, "--doc", str(fx / "handbook.txt")],
            ["ask", "--store", store, "--dict", dictionary, "--question", "What helps a cough?"],
            ["eval", "--store", store, "--dict", dictionary, "--records", str(fx / "questions.jsonl"), "--out", str(warm / "s.tsv")],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                self.cli.main(argv)

    # ---------------------------------------------------------- session

    def command(self, argv: list[str]) -> tuple[float, str, bool]:
        """Run one CLI command in process: (seconds, stdout, exit code 0)."""
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        before = sum(self.tracer.self_ms.values()) if self.tracer is not None else 0.0
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
        self.attempted += 1
        if code != 0:
            self.errors.append(f"{argv[0]} exited {code}: {err.getvalue().strip()[-500:]}")
        if self.tracer is not None:
            self._check_trace_sums(argv[0], before, dt * 1e3)
        return dt, out.getvalue(), code == 0

    def _check_trace_sums(self, name: str, before: float, wall_ms: float) -> None:
        """The self times of one command's spans must add up to its wall time.

        ``wall_ms`` is taken outside the tracer, so a span that is lost,
        counted twice or left open shows as a difference.
        """
        traced = sum(self.tracer.self_ms.values()) - before
        if abs(traced - wall_ms) > TRACE_SLACK_MS + TRACE_SLACK * wall_ms:
            self.errors.append(f"trace: self times of {name} sum to {traced:.3f} ms, its wall time is {wall_ms:.3f} ms")

    def expect(self, name: str, ok: bool) -> None:
        """Count a failure if output ``name`` is missing or differs from the first one.

        The first copy of each output is kept and checked by ``verify``
        after the timed window, so oracles do not eat measuring time.
        """
        if not ok:
            self.failed += 1
            return
        text = self.read(name)
        if name not in self.first_output:
            self.first_output[name] = text
        elif text != self.first_output[name]:
            self.failed += 1
            self.errors.append(f"{name} differs between sessions")

    def verify(self) -> None:
        """Oracle and golden checks of every first output and first answer."""
        for name, text in self.first_output.items():
            problems: list[str] = []
            p = self.pair
            if p is not None and name == "mappings.tsv":
                problems += oracles.check_mappings(p, text, gen.source_iri, gen.target_iri, ORACLE_SAMPLE, self.seed)
            elif p is not None and name == "corpus.tsv":
                problems += oracles.check_corpus(p, self.first_output["mappings.tsv"], text, gen.target_iri)
            elif p is not None and name == "dict.json":
                problems += oracles.check_dictionary(p, self.first_output["corpus.tsv"], text, gen.source_iri, gen.target_iri)
            elif name == "summary.tsv":
                problems += check_summary(text)
            golden = self.goldens.get(name)
            if golden is None:
                self.unchecked.append(name)
            elif golden != sha256(text):
                problems.append(f"{name} does not match its golden SHA-256")
            if problems:
                self.failed += 1
                self.errors.extend(problems)
        for question, (augmented, ids, scores, _) in self.first_answers.items():
            problems = self.ranking_oracle().check(augmented, ids, scores)
            if problems:
                self.failed += 1
                self.errors.extend(problems)
        for question, out in self.asked.items():
            want = self.first_answers.get(question)
            if want is None or out != want[3] + "\n":
                self.failed += 1
                self.errors.append(f"ask {question!r} printed a different answer than engine.answer")

    def read(self, name: str) -> str:
        return Path(self.path(name)).read_text(encoding="utf-8")

    def ready(self, *names: str) -> bool:
        return all(os.path.exists(self.path(n)) for n in names)

    def session(self, samples: dict[str, list[float]], done=lambda: False) -> None:
        """One session: the workload's steps in order; appends timings.

        Stops between steps once ``done()`` is true.
        """
        for step in self.w.session:
            for name in self.w.light if step == LIGHT else (step,):
                if done():
                    return
                self.step(name, samples, heavy=step != LIGHT)

    def step(self, name: str, samples: dict[str, list[float]], heavy: bool) -> None:
        p = self.path
        src, tgt = p("source.obo"), p("target.json")
        commands = {
            "align": ("mappings.tsv", ["--source", src, "--target", tgt, "--out", p("mappings.tsv")]),
            "subsume": ("corpus.tsv", ["--source", src, "--target", tgt, "--mappings", p("mappings.tsv"), "--out", p("corpus.tsv")]),
            "dict": ("dict.json", ["--source", src, "--target", tgt, "--corpus", p("corpus.tsv"), "--out", p("dict.json")]),
        }
        rag = ["--store", p("store.jsonl"), "--dict", p("dict.json"), "--k", str(TOP_K)]
        if name in commands:
            out, argv = commands[name]
            dt, _, ok = self.command([name, *argv])
            samples[f"{name}_s"].append(dt)
            self.expect(out, ok)
        elif name == "dictionary":
            for cmd in ("align", "subsume", "dict"):
                self.step(cmd, samples, heavy)
        elif name == "ingest":
            with contextlib.suppress(FileNotFoundError):
                os.remove(p("store.jsonl"))
            docs = [a for doc_id in self.docs for a in ("--doc", p(f"{doc_id}.txt"))]
            dt, _, ok = self.command(["ingest", "--store", p("store.jsonl"), *docs])
            samples["ingest_s"].append(dt)
            self.failed += not ok
            if ok and self.tracer is not None:
                self.tracer.counts["ragstore.store_bytes"] += os.path.getsize(p("store.jsonl"))
        elif name == "import":
            samples["import_ms"].append(self.import_probe())
        elif not self.ready("store.jsonl", "dict.json"):
            return  # first session: the light step runs before its inputs exist
        elif name == "ask":
            question = self.questions[self.asks % ASKED]
            self.asks += 1
            dt, out, ok = self.command(["ask", *rag, "--question", question])
            samples["ask_cmd_ms"].append(dt * 1e3)
            self.failed += not ok
            if ok:
                self.asked.setdefault(question, out)
        elif name == "loop":
            if heavy:
                questions = self.questions
            else:
                start = self.looped % len(self.questions)
                questions = (self.questions * 2)[start : start + LOOP_SLICE]
                self.looped += LOOP_SLICE
            self.closed_loop(questions, samples)
        elif name == "eval":
            dt, _, ok = self.command(["eval", *rag, "--records", p("records.jsonl"), "--out", p("summary.tsv")])
            samples["eval_s"].append(dt)
            self.expect("summary.tsv", ok)

    def closed_loop(self, questions: list[str], samples: dict[str, list[float]]) -> None:
        """One client: each question is sent when the previous answer is back."""
        store = self.ragstore.VectorStore.load(self.path("store.jsonl"))
        dictionary = self.subsume.SubsumptionDictionary.from_json(self.read("dict.json"))
        provider = self.ragstore.DeterministicEmbedder(dim=DIM)
        llm = self.engine.EchoLlm()
        results = []
        gc.collect()
        for question in questions:
            t0 = perf_counter()
            try:
                result = self.engine.answer(store, provider, llm, question, dictionary=dictionary, k=TOP_K)
            except Exception:
                result = None
                self.errors.append(f"answer {question!r} raised:\n{traceback.format_exc()}")
            samples["ask_ms"].append((perf_counter() - t0) * 1e3)
            results.append((question, result))
        del store
        self.attempted += len(results)
        for question, r in results:
            if r is None:
                self.failed += 1
                continue
            got = (r.augmented, r.context_ids, r.scores, r.response)
            if self.first_answers.setdefault(question, got) != got:
                self.failed += 1
                self.errors.append(f"answer to {question!r} changed")

    def ranking_oracle(self) -> oracles.RankingOracle:
        if self.oracle is None:
            self.oracle = oracles.RankingOracle(self.docs, DIM)
        return self.oracle

    def import_probe(self) -> float:
        """Milliseconds a fresh interpreter spends importing ontorag.cli."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, "-c", IMPORT_SNIPPET], cwd=str(self.dir), env=env,
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                raise ValueError(proc.stderr.strip()[-300:])
            return float(proc.stdout.strip()) * 1e3
        except (subprocess.SubprocessError, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"import probe failed: {exc}")
            return float("nan")

    # ------------------------------------------------------------ stats

    def input_stats(self) -> dict:
        s_cls, t_cls = self.classes
        s_texts = [oracles.class_texts(label, syns) for label, syns in s_cls]
        t_texts = [oracles.class_texts(label, syns) for label, syns in t_cls]
        answers = list(self.first_answers.items())
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "classes_per_side": [len(s_cls), len(t_cls)],
            "candidate_pairs": len(oracles.candidate_pairs(s_texts, t_texts)),
            "planted_pairs": len(self.pair["planted"]) if self.pair else 0,
            "mappings": self.rows("mappings.tsv"),
            "corpus_pairs": self.rows("corpus.tsv"),
            "anchors": len(json.loads(self.first_output.get("dict.json", "{}")).get("entries", {})),
            "documents": len(self.docs),
            "chunks": len(self.ranking_oracle()),
            "questions": len(answers),
            "augmented_share": sum(a[0] != q for q, a in answers) / max(1, len(answers)),
            "records": len(self.records),
        }

    def rows(self, name: str) -> int:
        return max(0, len([line for line in self.first_output.get(name, "").split("\n") if line]) - 1)


def check_summary(text: str) -> list[str]:
    """Nine rows; each relative change agrees with its two printed means."""
    rows = [line.split("\t") for line in text.split("\n") if line]
    if len(rows) != 10 or any(len(r) != 5 for r in rows):
        return ["summary.tsv is not a 9-row, 5-column table"]
    for table, measure, with_v, without_v, change in rows[1:]:
        w, wo, c = float(with_v), float(without_v), float(change)
        if abs(100.0 * (w - wo) / wo - c) > 1e-3 * max(1.0, abs(c)):
            return [f"summary.tsv: {table} / {measure} change {c} disagrees with its means"]
    return []


def environment(ontorag_kernels) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "have_numba": getattr(ontorag_kernels, "HAVE_NUMBA", None),
        # Without bytecode caching every import probe compiles ontorag again.
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when its library can be found."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def median(values: list[float]) -> float:
    return float(np.median(values))


def block_p90(latencies: list[float]) -> float:
    """p90 of each block of LATENCY_BLOCK consecutive questions, median over blocks.

    A burst of contention from the machine's other tenants then moves the
    p90 of the block it falls in, not the run's.
    """
    blocks = [latencies[i : i + LATENCY_BLOCK] for i in range(0, len(latencies) - LATENCY_BLOCK + 1, LATENCY_BLOCK)]
    return median([float(np.percentile(b, 90)) for b in blocks or [latencies]])


def command_p75(times: list[float]) -> float:
    """The time three in four runs of a command stay within.

    On a shared machine a command's times fall in two modes, the machine
    busy and the machine idle, and the idle share changes from run to run.
    A median that sits between the modes moves with that share; the 75th
    percentile sits in the busy mode. Over six runs per workload its
    run-to-run spread was below the median's for 15 of the 16 commands.
    """
    return float(np.nanpercentile(times, 75))


def end_to_end(setup_s: float, peak_rss_mb: float, samples: dict[str, list[float]]) -> dict[str, float]:
    latencies = samples["ask_ms"]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        **{name: command_p75(samples[name]) for name in COMMAND_TIMES},
        "ask_p50_ms": median(latencies),
        "ask_p90_ms": block_p90(latencies),
    }


def command_seconds(samples: dict[str, list[float]]) -> float:
    """Seconds a session spent in CLI commands."""
    seconds = sum(sum(samples[k]) for k in ("align_s", "subsume_s", "dict_s", "ingest_s", "eval_s"))
    return seconds + sum(samples["ask_cmd_ms"]) / 1e3


def run(args: argparse.Namespace, import_s: float, workdir: Path) -> dict:
    bench = Bench(args.workload, args.seed, workdir)
    setup_s = import_s + bench.setup()
    samples: dict[str, list[float]] = defaultdict(list)
    traced: list[dict[str, float]] = []
    plain_cmd: list[float] = []
    traced_cmd: list[float] = []
    start = perf_counter()

    def done() -> bool:
        return perf_counter() - start >= args.seconds and all(samples[k] for k in SAMPLED)

    while not done() or (args.trace and not traced):
        one: dict[str, list[float]] = defaultdict(list)
        if args.trace and len(plain_cmd) > len(traced):
            bench.tracer = Tracer()
            bench.tracer.install()
            try:
                bench.session(one)
            finally:
                bench.tracer.uninstall()
            traced.append(bench.tracer.metrics())
            traced_cmd.append(command_seconds(one))
            bench.tracer = None
        else:
            # Traced sessions must be whole to compare; untraced ones may stop early.
            bench.session(one, done=(lambda: False) if args.trace else done)
            plain_cmd.append(command_seconds(one))
            for k, v in one.items():
                samples[k].extend(v)
    # Before the oracles run: they hold a copy of the store of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.verify()

    info = {"inputs": bench.input_stats(), "environment": environment(sys.modules["ontorag._kernels"])}
    if args.trace:
        metrics = {name: median([t[name] for t in traced]) for name, _ in PER_LAYER if name != "trace.overhead_ms"}
        metrics["trace.overhead_ms"] = (median(traced_cmd) - median(plain_cmd)) * 1e3
        units = dict(PER_LAYER)
        info["sessions"] = {"untraced": len(plain_cmd), "traced": len(traced)}
    else:
        metrics = end_to_end(setup_s, peak_rss_mb, samples)
        units = dict(END_TO_END)
        info["sessions"] = len(plain_cmd)
        info["samples"] = {k: len(v) for k, v in sorted(samples.items())}
    info["unchecked_goldens"] = sorted(bench.unchecked)
    if bench.unchecked:
        print(f"note: goldens.json has no digest of {', '.join(sorted(bench.unchecked))} for seed {args.seed}; "
              "those outputs are checked by the oracles only", file=sys.stderr)
    for message in bench.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": bench.failed == 0 and not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        return 2
    t0 = perf_counter()
    import ontorag.cli  # noqa: F401  (timed: part of set-up)

    import_s = perf_counter() - t0
    with workdir(f"{args.workload}-{args.seed}") as wd:
        result = run(args, import_s, wd)
    print(json.dumps(result))
    return 0


def use_checkout_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path, if it is there."""
    if not (SRC / "ontorag" / "cli.py").is_file():
        print(f"error: no ontorag sources under {SRC}; run from an ontorag checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


@contextlib.contextmanager
def workdir(name: str):
    """A fresh directory under perfbench/_work, removed afterwards."""
    path = BENCH / "_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH / "_work").rmdir()


if __name__ == "__main__":
    sys.exit(main())

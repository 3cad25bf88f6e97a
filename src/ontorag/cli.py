"""Command line interface.

Eight subcommands cover the pipeline end to end: align two ontologies,
derive a labeled subsumption corpus, fold it into a dictionary, infiltrate
prompts, ingest documents into a store, ask single questions, chat, and run
the batch evaluation. Exit codes: 0 success, 1 usage, 2 data, 3 provider.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

from . import __version__
from .align import DEFAULT_THRESHOLD, EmbeddingScorer, LexicalScorer, align, read_mappings, render_mappings
from .engine import EchoLlm, HttpLlm, answer, chat_repl
from .errors import DataError, OntoRagError, UsageError
from .evaluate import evaluate_batch, read_records, render_summary_tsv
from .infiltrate import infiltrate
from .parse import numbered_lines, parse_ontology_file, read_text, stdin_lines
from .ragstore import (
    CHUNK_OVERLAP,
    CHUNK_SIZE,
    DEFAULT_DIM,
    DEFAULT_K,
    DeterministicEmbedder,
    HttpEmbeddingProvider,
    VectorStore,
    ingest,
)
from .subsume import (
    DEFAULT_MAX_PER_ANCHOR,
    DEFAULT_SUBSUME_THRESHOLD,
    build_dictionary,
    build_subsumption_corpus,
    predict_subsumptions,
    read_corpus,
    read_dictionary,
    render_corpus,
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose errors map to exit code 1, not 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _atomic_write(path: str, data: str | bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see halves.

    Text is written as UTF-8. A new file gets mode ``0o666`` less the umask, as
    ``open`` gives it; a replaced file keeps its permission bits.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".ontorag-{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # reported under the path the user gave, not the temp name
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_output(out: str | None, body: str, summary: str) -> None:
    """Write ``body`` to ``out`` and print ``summary -> out``, or write ``body`` to stdout."""
    if out:
        _atomic_write(out, body)
        print(f"{summary} -> {out}")
    else:
        sys.stdout.write(body)


def _load_ontology(path: str):
    report = parse_ontology_file(path)
    for lineno, message in report.warnings:
        where = path if lineno is None else f"{path}:{lineno}"
        print(f"warning: {where}: {message}", file=sys.stderr)
    return report.ontology


def _from_spec(spec: str, offline_cls, http_cls, what: str, **kwargs):
    """The provider named by ``spec``: ``offline_cls.name`` or an http(s) URL.

    ``kwargs`` go to either constructor.
    """
    offline = offline_cls.name
    if spec == offline:
        return offline_cls(**kwargs)
    if spec.startswith(("http://", "https://")):
        return http_cls(spec, **kwargs)
    raise UsageError(f"unknown {what} {spec!r}: use {offline!r} or an http(s) URL")


def _make_embedder(spec: str, dim: int):
    return _from_spec(spec, DeterministicEmbedder, HttpEmbeddingProvider, "embedding provider", dim=dim)


def _make_scorer(spec: str, dim: int):
    if spec == "lexical":
        return LexicalScorer()
    try:
        return EmbeddingScorer(_make_embedder(spec, dim))
    except UsageError:
        raise UsageError(f"unknown scorer {spec!r}: use 'lexical', {DeterministicEmbedder.name!r} or an http(s) URL") from None


def _make_llm(spec: str):
    return _from_spec(spec, EchoLlm, HttpLlm, "llm")


def _open_store(path: str):
    """The store at ``path`` and the embedder its header names."""
    store = VectorStore.load(path)
    try:
        return store, _make_embedder(store.provider_name, store.dim)
    except UsageError:
        raise DataError(f"{path}: {store.provider_name!r} is not a provider spec; re-ingest the store") from None


def _rag_inputs(args: argparse.Namespace):
    """The store, the embedder its header names, the LLM and the dictionary (None without ``--dict``)."""
    store, provider = _open_store(args.store)
    return store, provider, _make_llm(args.llm), read_dictionary(args.dict) if args.dict else None


def cmd_align(args: argparse.Namespace) -> int:
    source = _load_ontology(args.source)
    target = _load_ontology(args.target)
    scorer = _make_scorer(args.scorer, args.dim)
    mappings = align(
        source,
        target,
        scorer=scorer,
        threshold=args.threshold,
        use_blocking=not args.no_blocking,
    )
    _write_output(
        args.out, render_mappings(mappings), f"aligned {source.id} to {target.id}: {len(mappings)} mappings"
    )
    return 0


def cmd_subsume(args: argparse.Namespace) -> int:
    source = _load_ontology(args.source)
    target = _load_ontology(args.target)
    mappings = read_mappings(args.mappings)
    corpus = build_subsumption_corpus(
        source,
        target,
        mappings,
        negatives_per_positive=args.negatives,
        seed=args.seed,
    )
    positives = sum(1 for p in corpus if p.label)
    _write_output(
        args.out,
        render_corpus(corpus),
        f"built corpus from {len(mappings)} mappings: {positives} positive, {len(corpus) - positives} negative",
    )
    return 0


def cmd_dict(args: argparse.Namespace) -> int:
    source = _load_ontology(args.source)
    target = _load_ontology(args.target)
    corpus = read_corpus(args.corpus)
    scorer = _make_scorer(args.scorer, args.dim)
    accepted = predict_subsumptions(corpus, scorer, source, target, threshold=args.threshold)
    if args.accepted:
        _atomic_write(args.accepted, render_mappings(accepted))
    dictionary = build_dictionary(accepted, source, target, max_per_anchor=args.max_per_anchor)
    _write_output(
        args.out,
        dictionary.to_json(),
        f"accepted {len(accepted)} of {len(corpus)} pairs: {len(dictionary.entries)} anchors",
    )
    return 0


def cmd_infiltrate(args: argparse.Namespace) -> int:
    dictionary = read_dictionary(args.dict)
    if args.prompt is not None:
        prompts = [args.prompt]
    else:
        text = read_text(args.infile) if args.infile is not None else "".join(stdin_lines())
        prompts = [line for _, line in numbered_lines(text)]
    if not prompts:
        raise DataError("no prompts to infiltrate")
    results = [infiltrate(p, dictionary, fuzzy=args.fuzzy, bare=args.bare) for p in prompts]
    body = "\n".join(r.augmented for r in results) + "\n"
    changed = sum(1 for r in results if r.augmented != r.original)
    _write_output(args.out, body, f"infiltrated {changed} of {len(results)} prompts")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    spec, dim = args.provider, args.dim
    if os.path.exists(args.store):
        store, provider = _open_store(args.store)
        # A typed --provider or --dim must agree with the header; ingest() checks it.
        if spec is not None or dim is not None:
            provider = _make_embedder(provider.name if spec is None else spec, provider.dim if dim is None else dim)
    else:
        spec = os.environ.get("ONTORAG_PROVIDER", DeterministicEmbedder.name) if spec is None else spec
        provider = _make_embedder(spec, DEFAULT_DIM if dim is None else dim)
        store = VectorStore.new(provider)
    if args.doc_id and len(args.doc) > 1:
        raise UsageError("--doc-id only applies when a single --doc is given")
    docs = [
        (args.doc_id or os.path.splitext(os.path.basename(path))[0], read_text(path)) for path in args.doc
    ]
    added = ingest(store, docs, provider, size=args.size, overlap=args.overlap)
    for target, data in store.to_jsonl(args.store):
        _atomic_write(target, data)
    print(f"ingested {added} chunks from {len(args.doc)} documents; store has {len(store)} -> {args.store}")
    return 0


def cmd_ask(args: argparse.Namespace) -> int:
    store, provider, llm, dictionary = _rag_inputs(args)
    result = answer(
        store,
        provider,
        llm,
        args.question,
        dictionary=dictionary,
        k=args.k,
        fuzzy=args.fuzzy,
        bare=args.bare,
    )
    if args.show_context:
        print(f"augmented: {result.augmented}", file=sys.stderr)
        for chunk_id, score in zip(result.context_ids, result.scores):
            print(f"context: {chunk_id}\t{score:.6f}", file=sys.stderr)
    print(result.response)
    return 0


def cmd_chat(args: argparse.Namespace) -> int:
    store, provider, llm, dictionary = _rag_inputs(args)
    turns = chat_repl(
        store,
        provider,
        llm,
        dictionary,
        stdin_lines(),
        sys.stdout,
        k=args.k,
        log_path=args.log,
        fuzzy=args.fuzzy,
        bare=args.bare,
    )
    print(f"chat ended after {len(turns)} turns", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    store, provider, llm, dictionary = _rag_inputs(args)
    records = read_records(args.records)
    summary = evaluate_batch(
        records,
        store,
        provider,
        llm,
        dictionary,
        k=args.k,
        fuzzy=args.fuzzy,
        bare=args.bare,
    )
    _write_output(
        args.out,
        render_summary_tsv(summary),
        f"evaluated {summary.n_records} records ({summary.augmented_count} prompts changed)",
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ontorag", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    # Each option that several subcommands share is defined once, in a parent.
    ontologies = _Parser(add_help=False)
    ontologies.add_argument("--source", required=True, help="source ontology (.obo or .json)")
    ontologies.add_argument("--target", required=True, help="target ontology (.obo or .json)")
    scorer = _Parser(add_help=False)
    scorer.add_argument(
        "--scorer",
        default=os.environ.get("ONTORAG_SCORER", "lexical"),
        help="synonymy scorer: 'lexical' or an embedding provider spec (default: lexical)",
    )
    scorer.add_argument("--dim", type=int, default=DEFAULT_DIM, help="embedding width for non-lexical scorers")
    matching = _Parser(add_help=False)
    matching.add_argument("--fuzzy", action="store_true", help="allow one-edit anchor matches")
    matching.add_argument("--bare", action="store_true", help="append terms without the (related: ...) marker")
    # ask, chat and eval embed with the provider the store's header names.
    rag = _Parser(add_help=False, parents=[matching])
    rag.add_argument("--store", required=True, help="store JSONL path (its matrix is PATH.npy)")
    rag.add_argument(
        "--llm",
        default=os.environ.get("ONTORAG_LLM", EchoLlm.name),
        help=f"completion provider: {EchoLlm.name!r} or an http(s) URL",
    )
    rag.add_argument("--k", type=int, default=DEFAULT_K, help=f"chunks to retrieve (default: {DEFAULT_K})")
    # infiltrate and eval need a dictionary; ask and chat take one if given.
    needs_dict = _Parser(add_help=False)
    needs_dict.add_argument("--dict", required=True, help="dictionary JSON from 'dict'")
    takes_dict = _Parser(add_help=False)
    takes_dict.add_argument("--dict", help="dictionary JSON from 'dict'")

    p = subs.add_parser(
        "align", help="extract equivalence mappings between two ontologies", parents=[ontologies, scorer]
    )
    p.add_argument("--out", required=True, help="mapping TSV to write")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD, help=f"acceptance threshold (default: {DEFAULT_THRESHOLD})")
    p.add_argument("--no-blocking", action="store_true", help="score every cross pair, skip token blocking")
    p.set_defaults(func=cmd_align)

    p = subs.add_parser("subsume", help="build a labeled subsumption corpus from mappings", parents=[ontologies])
    p.add_argument("--mappings", required=True, help="mapping TSV from 'align'")
    p.add_argument("--out", required=True, help="corpus TSV to write")
    p.add_argument("--negatives", type=int, default=1, help="negatives per positive (default: 1)")
    p.add_argument("--seed", type=int, default=0, help="negative sampling seed (default: 0)")
    p.set_defaults(func=cmd_subsume)

    p = subs.add_parser(
        "dict", help="score a corpus and emit a subsumption dictionary", parents=[ontologies, scorer]
    )
    p.add_argument("--corpus", required=True, help="corpus TSV from 'subsume'")
    p.add_argument("--out", required=True, help="dictionary JSON to write")
    p.add_argument("--accepted", help="also write accepted pairs as TSV")
    p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_SUBSUME_THRESHOLD,
        help=f"acceptance threshold (default: {DEFAULT_SUBSUME_THRESHOLD})",
    )
    p.add_argument(
        "--max-per-anchor",
        type=int,
        default=DEFAULT_MAX_PER_ANCHOR,
        help=f"labels kept per anchor (default: {DEFAULT_MAX_PER_ANCHOR})",
    )
    p.set_defaults(func=cmd_dict)

    p = subs.add_parser("infiltrate", help="augment prompts with narrower terms", parents=[needs_dict, matching])
    prompts = p.add_mutually_exclusive_group()
    prompts.add_argument("--prompt", help="single prompt (default: read lines from stdin)")
    prompts.add_argument("--in", dest="infile", help="read prompts, one per line")
    p.add_argument("--out", help="write augmented prompts here instead of stdout")
    p.set_defaults(func=cmd_infiltrate)

    p = subs.add_parser("ingest", help="chunk and embed documents into a store")
    p.add_argument(
        "--provider",
        help=f"a new store's embedding provider: {DeterministicEmbedder.name!r} or an http(s) URL "
        "(default: $ONTORAG_PROVIDER, else deterministic); an existing store's header must match",
    )
    p.add_argument("--store", required=True, help="store JSONL and PATH.npy; created if missing")
    p.add_argument("--doc", required=True, action="append", help="document text file (repeatable)")
    p.add_argument("--doc-id", help="document id (single --doc only; default: file stem)")
    p.add_argument("--dim", type=int, help=f"a new store's embedding width (default: {DEFAULT_DIM}); an existing store's must match")
    p.add_argument("--size", type=int, default=CHUNK_SIZE, help=f"chunk size (default: {CHUNK_SIZE})")
    p.add_argument("--overlap", type=int, default=CHUNK_OVERLAP, help=f"chunk overlap (default: {CHUNK_OVERLAP})")
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("ask", help="answer one question against a store", parents=[rag, takes_dict])
    p.add_argument("--question", required=True)
    p.add_argument("--show-context", action="store_true", help="print augmentation and hits to stderr")
    p.set_defaults(func=cmd_ask)

    p = subs.add_parser("chat", help="interactive loop; /quit or EOF ends it", parents=[rag, takes_dict])
    p.add_argument("--log", help="append turns as JSONL here")
    p.set_defaults(func=cmd_chat)

    p = subs.add_parser("eval", help="measure hallucination with and without infiltration", parents=[rag, needs_dict])
    p.add_argument("--records", required=True, help="JSONL of prompt and ground_truth")
    p.add_argument("--out", help="write the summary TSV here instead of stdout")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except OntoRagError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        where = f"cannot access {exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())

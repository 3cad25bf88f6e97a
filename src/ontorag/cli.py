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
import sys
import tempfile

from . import __version__
from .align import DEFAULT_THRESHOLD, EmbeddingScorer, LexicalScorer, align, read_mappings, render_mappings
from .engine import EchoLlm, HttpLlm, answer, chat_repl
from .errors import DataError, OntoRagError, ProviderError, UsageError
from .evaluate import evaluate_batch, read_records, render_summary_tsv
from .infiltrate import MAX_APPEND_TOTAL, infiltrate
from .parse import parse_ontology_file
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
    SubsumptionDictionary,
    build_dictionary,
    build_subsumption_corpus,
    predict_subsumptions,
    read_corpus,
    render_corpus,
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose errors map to exit code 1, not 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _atomic_write(path: str, data: str | bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see halves.

    Text is written as UTF-8.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".ontorag-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _load_ontology(path: str):
    report = parse_ontology_file(path)
    for lineno, message in report.warnings:
        print(f"warning: {path}:{lineno}: {message}", file=sys.stderr)
    return report.ontology


def _from_spec(spec: str, offline_cls, http_cls, what: str, **kwargs):
    """The provider named by ``spec``: ``offline_cls.name``, an http(s) URL, or ``http:`` and a URL.

    ``kwargs`` go to either constructor.
    """
    offline = offline_cls.name
    if spec == offline:
        return offline_cls(**kwargs)
    if spec.startswith(("http://", "https://")):
        return http_cls(spec, **kwargs)
    if spec.startswith("http:"):
        return http_cls(spec[len("http:") :], **kwargs)
    raise UsageError(f"unknown {what} {spec!r}: use {offline!r} or an http(s) URL")


def _make_embedder(spec: str, dim: int):
    return _from_spec(spec, DeterministicEmbedder, HttpEmbeddingProvider, "embedding provider", dim=dim)


def _make_scorer(spec: str, dim: int):
    if spec == "lexical":
        return LexicalScorer()
    return EmbeddingScorer(_make_embedder(spec, dim))


def _make_llm(spec: str):
    return _from_spec(spec, EchoLlm, HttpLlm, "llm")


def _load_dictionary(path: str) -> SubsumptionDictionary:
    with open(path, "r", encoding="utf-8") as fh:
        return SubsumptionDictionary.from_json(fh.read())


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
    _atomic_write(args.out, render_mappings(mappings))
    print(f"aligned {source.id} to {target.id}: {len(mappings)} mappings -> {args.out}")
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
    _atomic_write(args.out, render_corpus(corpus))
    positives = sum(1 for p in corpus if p.label)
    print(
        f"built corpus from {len(mappings)} mappings: "
        f"{positives} positive, {len(corpus) - positives} negative -> {args.out}"
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
    _atomic_write(args.out, dictionary.to_json())
    print(
        f"accepted {len(accepted)} of {len(corpus)} pairs: "
        f"{len(dictionary.entries)} anchors -> {args.out}"
    )
    return 0


def cmd_infiltrate(args: argparse.Namespace) -> int:
    dictionary = _load_dictionary(args.dict)
    if args.prompt is not None:
        prompts = [args.prompt]
    elif args.infile is not None:
        with open(args.infile, "r", encoding="utf-8") as fh:
            prompts = [line for line in fh.read().split("\n") if line.strip()]
    else:
        prompts = [line for line in sys.stdin.read().split("\n") if line.strip()]
    if not prompts:
        raise DataError("no prompts to infiltrate")
    results = [
        infiltrate(p, dictionary, fuzzy=args.fuzzy, bare=args.bare, max_append_total=args.max_append)
        for p in prompts
    ]
    body = "\n".join(r.augmented for r in results) + "\n"
    changed = sum(1 for r in results if r.augmented != r.original)
    if args.out:
        _atomic_write(args.out, body)
        print(f"infiltrated {changed} of {len(results)} prompts -> {args.out}")
    else:
        sys.stdout.write(body)
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    if os.path.exists(args.store):
        store = VectorStore.load(args.store)
        provider = _make_embedder(args.provider, store.dim)
    else:
        provider = _make_embedder(args.provider, args.dim)
        store = VectorStore.new(provider)
    if args.doc_id and len(args.doc) > 1:
        raise UsageError("--doc-id only applies when a single --doc is given")
    docs = []
    for path in args.doc:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append((args.doc_id or os.path.splitext(os.path.basename(path))[0], fh.read()))
    added = ingest(store, docs, provider, size=args.size, overlap=args.overlap)
    for target, data in store.to_jsonl(args.store):
        _atomic_write(target, data)
    print(f"ingested {added} chunks from {len(args.doc)} documents; store has {len(store)} -> {args.store}")
    return 0


def cmd_ask(args: argparse.Namespace) -> int:
    store = VectorStore.load(args.store)
    provider = _make_embedder(args.provider, store.dim)
    llm = _make_llm(args.llm)
    dictionary = _load_dictionary(args.dict) if args.dict else None
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
    store = VectorStore.load(args.store)
    provider = _make_embedder(args.provider, store.dim)
    llm = _make_llm(args.llm)
    dictionary = _load_dictionary(args.dict) if args.dict else None
    turns = chat_repl(
        store,
        provider,
        llm,
        dictionary,
        sys.stdin,
        sys.stdout,
        k=args.k,
        log_path=args.log,
        fuzzy=args.fuzzy,
        bare=args.bare,
    )
    print(f"chat ended after {len(turns)} turns", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    store = VectorStore.load(args.store)
    provider = _make_embedder(args.provider, store.dim)
    llm = _make_llm(args.llm)
    dictionary = _load_dictionary(args.dict)
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
    rendered = render_summary_tsv(summary)
    if args.out:
        _atomic_write(args.out, rendered)
        print(
            f"evaluated {summary.n_records} records "
            f"({summary.augmented_count} prompts changed) -> {args.out}"
        )
    else:
        sys.stdout.write(rendered)
    return 0


def _add_scorer_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--scorer",
        default=os.environ.get("ONTORAG_SCORER", "lexical"),
        help="synonymy scorer: 'lexical' or an embedding provider spec (default: lexical)",
    )
    sub.add_argument("--dim", type=int, default=DEFAULT_DIM, help="embedding width for non-lexical scorers")


def _add_rag_args(sub: argparse.ArgumentParser, with_dict_required: bool = False) -> None:
    sub.add_argument("--store", required=True, help="store JSONL path (its matrix is PATH.npy)")
    sub.add_argument(
        "--provider",
        default=os.environ.get("ONTORAG_PROVIDER", DeterministicEmbedder.name),
        help=f"embedding provider: {DeterministicEmbedder.name!r} or an http(s) URL",
    )
    sub.add_argument(
        "--llm",
        default=os.environ.get("ONTORAG_LLM", EchoLlm.name),
        help=f"completion provider: {EchoLlm.name!r} or an http(s) URL",
    )
    sub.add_argument("--dict", required=with_dict_required, help="subsumption dictionary JSON")
    sub.add_argument("--k", type=int, default=DEFAULT_K, help=f"chunks to retrieve (default: {DEFAULT_K})")
    sub.add_argument("--fuzzy", action="store_true", help="allow one-edit anchor matches")
    sub.add_argument("--bare", action="store_true", help="append terms without the (related: ...) marker")


def build_parser() -> _Parser:
    parser = _Parser(prog="ontorag", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = subs.add_parser("align", help="extract equivalence mappings between two ontologies")
    p.add_argument("--source", required=True, help="source ontology (.obo or .json)")
    p.add_argument("--target", required=True, help="target ontology (.obo or .json)")
    p.add_argument("--out", required=True, help="mapping TSV to write")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD, help=f"acceptance threshold (default: {DEFAULT_THRESHOLD})")
    p.add_argument("--no-blocking", action="store_true", help="score every cross pair, skip token blocking")
    _add_scorer_args(p)
    p.set_defaults(func=cmd_align)

    p = subs.add_parser("subsume", help="build a labeled subsumption corpus from mappings")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--mappings", required=True, help="mapping TSV from 'align'")
    p.add_argument("--out", required=True, help="corpus TSV to write")
    p.add_argument("--negatives", type=int, default=1, help="negatives per positive (default: 1)")
    p.add_argument("--seed", type=int, default=0, help="negative sampling seed (default: 0)")
    p.set_defaults(func=cmd_subsume)

    p = subs.add_parser("dict", help="score a corpus and emit a subsumption dictionary")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
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
    _add_scorer_args(p)
    p.set_defaults(func=cmd_dict)

    p = subs.add_parser("infiltrate", help="augment prompts with narrower terms")
    p.add_argument("--dict", required=True, help="dictionary JSON from 'dict'")
    p.add_argument("--prompt", help="single prompt (default: read lines from stdin)")
    p.add_argument("--in", dest="infile", help="read prompts, one per line")
    p.add_argument("--out", help="write augmented prompts here instead of stdout")
    p.add_argument("--fuzzy", action="store_true", help="allow one-edit anchor matches")
    p.add_argument("--bare", action="store_true", help="append terms without the (related: ...) marker")
    p.add_argument(
        "--max-append",
        type=int,
        default=MAX_APPEND_TOTAL,
        help=f"append at most this many terms (default: {MAX_APPEND_TOTAL})",
    )
    p.set_defaults(func=cmd_infiltrate)

    p = subs.add_parser("ingest", help="chunk and embed documents into a store")
    p.add_argument("--store", required=True, help="store JSONL and PATH.npy; created if missing")
    p.add_argument("--doc", required=True, action="append", help="document text file (repeatable)")
    p.add_argument("--doc-id", help="document id (single --doc only; default: file stem)")
    p.add_argument(
        "--provider",
        default=os.environ.get("ONTORAG_PROVIDER", DeterministicEmbedder.name),
        help=f"embedding provider: {DeterministicEmbedder.name!r} or an http(s) URL",
    )
    p.add_argument("--dim", type=int, default=DEFAULT_DIM, help=f"embedding width for new stores (default: {DEFAULT_DIM})")
    p.add_argument("--size", type=int, default=CHUNK_SIZE, help=f"chunk size (default: {CHUNK_SIZE})")
    p.add_argument("--overlap", type=int, default=CHUNK_OVERLAP, help=f"chunk overlap (default: {CHUNK_OVERLAP})")
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("ask", help="answer one question against a store")
    _add_rag_args(p)
    p.add_argument("--question", required=True)
    p.add_argument("--show-context", action="store_true", help="print augmentation and hits to stderr")
    p.set_defaults(func=cmd_ask)

    p = subs.add_parser("chat", help="interactive loop; /quit or EOF ends it")
    _add_rag_args(p)
    p.add_argument("--log", help="append turns as JSONL here")
    p.set_defaults(func=cmd_chat)

    p = subs.add_parser("eval", help="measure hallucination with and without infiltration")
    _add_rag_args(p, with_dict_required=True)
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OntoRagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        name = getattr(exc, "filename", None) or exc
        print(f"error: cannot access {name}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())

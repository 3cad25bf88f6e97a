"""The two workloads and the CLI session each of them repeats.

A user of ontorag builds a dictionary once (``align``, ``subsume``,
``dict``), ingests a corpus (``ingest``), asks questions one-shot
(``ask``) or in a loop, and runs the A/B evaluation (``eval``). Every
session of every workload runs every command, in this process,
through ``ontorag.cli.main`` and ``ontorag.engine.answer``, so every
end-to-end metric exists on every workload. Each workload scales up one
part of the session (its heavy steps) and runs the rest at the size of
the bundled fixtures, where a command takes milliseconds; those light
steps run in rounds between the heavy ones, many times per run.

Every timed command that takes under a second is sampled several times
per session, so that a run holds twenty to thirty samples or more of
each and their 75th percentile is steady on a shared machine whose
speed drifts over tens of seconds:

* ``build-dict`` scales the ontologies (781 classes per side, a complete
  fan-out-5 tree of depth 4). Alignment scoring, corpus sampling and
  subsumption prediction do nearly all the work; the store, engine and
  evaluate layers only see the bundled handbook and questions. Alignment
  pruning shows here. ``align`` takes about three seconds and runs once a
  session, a dozen times a run; ``subsume`` and ``dict`` re-run on its
  output three times a session.
* ``store-qa`` scales the store (4,000 chunks of 512 characters, a
  256-wide float64 matrix of 8 MB, four times a 2 MiB L2) and sends 300
  questions through a closed loop, one client, each question sent when
  the previous answer returns. Chunking, embedding and JSON serialization
  (write path) and JSON float parsing, the cosine scan and the ranking
  (read path) do the work. Writes sit beside reads so a store format that
  speeds ``load`` but slows ``save`` still shows. The dictionary is the
  one the fixture ontologies give, so alignment work there is
  fixture-sized. The store is no larger so that a run holds about twenty
  ``ingest`` and thirty one-shot ``ask`` and ``eval`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass

TOP_K = 4
DIM = 256
LOOP_SLICE = 50  # closed-loop questions per light round
ASKED = 10  # one-shot asks cycle through this many questions
LIGHT = "light"  # a session step that runs one round of the light steps


@dataclass(frozen=True)
class Workload:
    """Inputs, and the order of steps in one session.

    ``session`` lists the heavy steps, the scaled commands, in order; each
    ``LIGHT`` in it runs every fixture-sized step of ``light`` once, so
    those are sampled at many points in time instead of in one burst.
    """

    name: str
    classes: int  # per side; 0 means the bundled fixture ontologies
    chunks: int  # target store size; 0 means the bundled handbook
    questions: int  # distinct closed-loop questions
    session: tuple[str, ...]
    light: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "build-dict", classes=781, chunks=0, questions=200,
            session=("align", LIGHT, *(("subsume", "dict", LIGHT) * 3)),
            light=("ingest", "ask", "ask", "loop", "eval", "import"),
        ),
        Workload(
            "store-qa", classes=0, chunks=4000, questions=300,
            session=("ingest", LIGHT, "ask", "eval", "ingest", LIGHT, "loop", "ask", "eval", LIGHT, "ask", "eval"),
            light=("dictionary", "dictionary", "import"),
        ),
    )
}

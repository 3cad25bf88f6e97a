"""Ontology-guided prompt infiltration for retrieval-augmented generation.

The pipeline: align two ontologies to find equivalent classes, derive
subsumption-linked concepts from the target hierarchy, compile them into a
label dictionary, inject matching entries into user prompts before
retrieval, and measure the effect on response quality with a contextual /
factual / hallucination-index metric suite.
"""

__version__ = "0.1.0"

"""Exception taxonomy shared by the library and the CLI.

Each class carries the process exit code and the stderr prefix the CLI uses.
"""


class OntoRagError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = 2
    prefix = "error"


class UsageError(OntoRagError):
    """A parameter is outside its documented range or a flag is misused."""

    exit_code = 1
    prefix = "usage error"


class DataError(OntoRagError):
    """Input data is malformed, inconsistent, or missing."""

    exit_code = 2


class ParseError(DataError):
    """Ontology text could not be parsed into at least one class."""


class UnknownClassError(DataError):
    """An operation referenced an IRI that is not in the ontology."""


class ProviderError(OntoRagError):
    """An embedding, scoring, or LLM provider call failed."""

    exit_code = 3
    prefix = "provider error"

"""Exception hierarchy shared across the pipeline."""


class Warc2MetaError(Exception):
    """Base class for all pipeline errors."""


# --- WARC ingestion ---

class MalformedWarcHeader(Warc2MetaError):
    pass


class TruncatedRecord(Warc2MetaError):
    pass


class GzipError(Warc2MetaError):
    pass


class InvalidUrl(Warc2MetaError):
    pass


# --- heuristics ---

class EmptySite(Warc2MetaError):
    pass


class InvalidPattern(Warc2MetaError):
    pass


# --- token counting ---

class VocabularyLoadError(Warc2MetaError):
    pass


# --- LLM client ---

class EmptyContent(Warc2MetaError):
    pass


class ApiError(Warc2MetaError):
    def __init__(self, status, body):
        super().__init__(f"API error {status}: {body[:200]}")


class RateLimited(Warc2MetaError):
    pass


class SchemaViolation(Warc2MetaError):
    pass


# --- intrinsic evaluation ---

class EmptyText(Warc2MetaError):
    pass


class NoOverlap(Warc2MetaError):
    pass


# --- statistical evaluation ---

class MalformedCsv(Warc2MetaError):
    pass


class UnknownVerdict(Warc2MetaError):
    pass


class EmptyAfterFiltering(Warc2MetaError):
    pass


class DegenerateMatrix(Warc2MetaError):
    pass


class NoDiscordantPairs(Warc2MetaError):
    pass


# --- CLI / config ---

class ConfigError(Warc2MetaError):
    pass

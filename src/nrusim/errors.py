"""Exception types shared across the package, and the checked-record base that raises them."""


class NrusimError(Exception):
    """Base class for every error raised by this package."""


class RasterRangeError(NrusimError, ValueError):
    """Raster index or frequency lies outside the global raster segments."""


class OffRasterError(NrusimError, ValueError):
    """Frequency is inside a segment but not on the raster grid.

    Carries the two nearest on-grid indices so callers can suggest a fix.
    """

    def __init__(self, message: str, below: int | None = None, above: int | None = None):
        super().__init__(message)
        self.below = below
        self.above = above


class ConfigError(NrusimError):
    """Bad or missing configuration data (unknown profile, jurisdiction, band)."""


class ScenarioError(NrusimError):
    """A scenario file failed validation; the message names the failing rule."""


class AllocationError(NrusimError):
    """The UE address pool has no free host addresses left."""


class StateError(NrusimError):
    """Operation attempted in the wrong order (unregistered UE, busy pool, ...)."""


class DomainError(NrusimError, ValueError):
    """Physically meaningless input (negative distance, zero bandwidth, ...)."""


class CodecError(NrusimError, ValueError):
    """Malformed packet bytes."""


class TruncatedPacketError(CodecError):
    """Fewer bytes than the mandatory header requires."""


class VersionError(CodecError):
    """Protocol version field does not match what the codec supports."""


class FramingError(CodecError):
    """Header fields are inconsistent with the actual byte layout."""


class OversizePayloadError(CodecError):
    """Payload too large for the protocol's length field."""


class InvariantBreach(NrusimError):
    """A runtime simulation invariant failed; the run must abort, not continue."""


class CheckedRecord:
    """Base of a named-tuple record whose constructor checks its fields.

    A record is ``class Name(CheckedRecord, _NameFields)`` with
    ``__slots__ = ()``, where ``_NameFields`` is the ``NamedTuple`` of its
    fields and ``_check`` raises one of the errors above.  ``_make`` and
    ``_replace`` do not call ``__new__``, so they skip the check: pass
    their result back through the class to check it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

"""Exception types shared across the package, and the type check of every config."""
import types
import typing


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


def check_field_types(config):
    """Raise ConfigError naming the first field of the dataclass `config` whose
    value does not fit the field's annotation. An int fits a float, a bool fits
    neither an int nor a float, and a list of the item type fits a tuple."""
    for name, hint in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        if not _fits(value, hint):
            shown = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{name} must be {shown}, got {value!r}")


def _fits(value, hint) -> bool:
    if isinstance(hint, types.UnionType):
        return any(_fits(value, arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:  # tuple[item, ...]
        item = typing.get_args(hint)[0]
        return isinstance(value, (tuple, list)) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


class ParseError(ValueError):
    """Malformed input file. Carries the offending line number when known."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where += f"{path}"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)


class EmptyDatasetError(ValueError):
    """No records left to work with."""


class ShapeError(ValueError):
    """Incompatible array shapes or dtypes."""


class NumericDomainError(ValueError):
    """Operand outside an op's mathematical domain (log of non-positive, division by zero)."""


class ContractError(RuntimeError):
    """A caller violated an operation's contract."""


class TaxonomyConflictError(ValueError):
    """The same class name observed under two different parents."""


class CompatibilityError(ValueError):
    """Checkpoint does not match the requested model or tokenizer."""


class DegenerateVarianceError(ValueError):
    """Statistic undefined because the sample variance is zero."""

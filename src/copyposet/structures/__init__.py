"""Built-in structure registry.

Each built-in lives in its own module, which is imported the first time
``get_structure`` or a class name such as ``structures.DLO`` asks for it,
so a caller that works on one structure loads only that structure's
module (and ``base``).
"""

from importlib import import_module

from ..errors import UnknownStructureError

# id -> (module, class), in listing order
_REGISTRY = {
    "pureset": ("pureset", "PureSet"),
    "zorder": ("zorder", "ZOrder"),
    "dlo": ("dlo", "DLO"),
    "rado": ("rado", "RadoGraph"),
    "equiv": ("equiv", "EquivInf"),
    "zeta2": ("zeta2", "Zeta2"),
    "zetaeta": ("zetaeta", "ZetaEta"),
    "treetz": ("treetz", "TreeTZ"),
    "pairs": ("pairs", "PairsAction"),
}

BUILTIN_IDS = tuple(_REGISTRY)

_instances = {}


def _load(module, name):
    return getattr(import_module("." + module, __name__), name)


def get_structure(structure_id):
    """The shared instance of a built-in structure.  It keeps its
    enumeration and its memo (``core.Memo``) for the life of the process;
    a fresh instance, ``type(st)()``, is cold."""
    st = _instances.get(structure_id)
    if st is None:
        try:
            module, name = _REGISTRY[structure_id]
        except KeyError:
            raise UnknownStructureError(
                "unknown structure id %r (known: %s)"
                % (structure_id, ", ".join(BUILTIN_IDS))) from None
        st = _instances[structure_id] = _load(module, name)()
    return st


def all_structures():
    return [get_structure(sid) for sid in BUILTIN_IDS]


def __getattr__(name):
    # Structure and the built-in classes resolve on first access and are
    # bound here, so later accesses skip this hook
    for module, cls in (("base", "Structure"), *_REGISTRY.values()):
        if cls == name:
            value = globals()[name] = _load(module, name)
            return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "Structure", "BUILTIN_IDS", "get_structure", "all_structures",
    "PureSet", "ZOrder", "DLO", "RadoGraph", "EquivInf",
    "Zeta2", "ZetaEta", "TreeTZ", "PairsAction",
]

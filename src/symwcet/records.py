"""A cheaper constructor for the frozen, slotted records of the analysis.

Blocks, loops, tree nodes and formula nodes are frozen dataclasses built
by the thousand per document.  A frozen dataclass's generated `__init__`
stores each field with `object.__setattr__`, which finds the field's slot
by name on every call; `slot_init` replaces it with one that calls each
slot descriptor's `__set__`, looked up once when the class is defined.
A field the constructor does not take (`init=False`) is stored by the
class's `__post_init__`, as formula sums and maxima store their terms.
"""

from __future__ import annotations

from dataclasses import MISSING, fields


def slot_init(cls: type) -> type:
    """Install on a `@dataclass(frozen=True, slots=True)` class an `__init__`
    that stores each field through its slot descriptor.

    The signature (field order, keyword arguments, plain defaults) and the
    call to `__post_init__` are those of the generated `__init__`; equality,
    hashing, `repr`, `dataclasses.replace` and the refusal to assign a field
    are the dataclass's own.  An `init=False` field is left, as the
    generated `__init__` leaves it, for `__post_init__` to store; such a
    field may not have a default, and no field a default factory.
    """
    if "__slots__" not in vars(cls):
        raise TypeError(f"{cls.__name__}: slot_init needs a slotted dataclass")
    params: list[str] = []
    body: list[str] = []
    env: dict[str, object] = {}
    for f in fields(cls):
        if (f.default_factory is not MISSING
                or not f.init and f.default is not MISSING):
            raise TypeError(f"{cls.__name__}.{f.name}: slot_init supports "
                            f"only plain defaults, on init fields")
        if not f.init:
            continue
        env[f"_set_{f.name}"] = vars(cls)[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    # The descriptors and defaults reach the new function as closure cells.
    source = (f"def make({', '.join(env)}):\n"
              f"    def __init__(self, {', '.join(params)}):\n"
              + "".join(f"        {line}\n" for line in body)
              + "    return __init__\n")
    namespace: dict = {}
    exec(source, namespace)
    init = namespace["make"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init  # type: ignore[misc]
    return cls

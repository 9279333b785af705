"""Immutable value classes without `dataclasses`.

`frozen` reads a class's fields from its annotations, in order, and gives it
what the package's value classes use: an `__init__` taking the fields by
position or keyword, with the class-level values as defaults, that calls
`__post_init__` when the class has one; `__eq__` (same class only),
`__hash__` and `__repr__` over the compared fields; and AttributeError on
assignment and deletion.  A method the class defines itself is kept; one it
inherits is replaced, so a base class cannot lend its subclasses `__eq__`.

Importing `dataclasses` (and with it `inspect`) and generating each method
from source cost every command about 25 ms at start-up; these methods are
plain closures over each class's field names instead.
"""

from operator import attrgetter


def frozen(cls=None, *, uncompared=(), also_compared=()):
    """Class decorator; fields named in `uncompared` stay out of eq, hash and
    repr, and attributes named in `also_compared` join eq, not hash."""
    if cls is None:
        return lambda c: frozen(c, uncompared=uncompared, also_compared=also_compared)
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    shown = tuple(name for name in names if name not in uncompared)
    key, same = attrgetter(*shown), attrgetter(*shown, *also_compared)
    post_init = getattr(cls, "__post_init__", None)
    title = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} positional arguments but {len(args)} were given")
        values = dict(zip(names, args))
        if kwargs or len(args) < len(names):
            for name, value in kwargs.items():
                if name not in names:
                    raise TypeError(f"{title}() got an unexpected keyword argument {name!r}")
                if name in values:
                    raise TypeError(f"{title}() got multiple values for argument {name!r}")
                values[name] = value
            for name in names:
                if name not in values:
                    if name not in defaults:
                        raise TypeError(f"{title}() missing required argument {name!r}")
                    values[name] = defaults[name]
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return f"{title}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return same(self) == same(other)

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls

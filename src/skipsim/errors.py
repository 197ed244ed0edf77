"""The error a model check raises: it names the fields the check read, so
that a caller can say where each was set."""

from __future__ import annotations

import re


class FieldError(ValueError):
    """A failed model check, stated once as `template`: its predicate with
    each field or parameter the check read as a `{name}` placeholder, the
    first its subject, as in "{level} must lie in (0, 1)". The message
    names each field by itself ("level must lie in (0, 1)"); `render`
    names each as a caller does, the config by its key."""

    def __init__(self, template: str):
        self.template = template
        self.fields = tuple(dict.fromkeys(re.findall(r"\{(\w+)\}", template)))
        super().__init__(self.render({name: name for name in self.fields}))

    def render(self, names) -> str:
        """The message with each field called what `names` maps it to; a
        KeyError if `names` maps one to nothing."""
        return self.template.format_map(names)


def check_positive(model, *names, zero_ok=False):
    """A FieldError naming the first field of `model` among `names` that is
    not positive, or not >= 0 if `zero_ok`."""
    for name in names:
        value = getattr(model, name)
        if not (value >= 0 if zero_ok else value > 0):
            raise FieldError(f"{{{name}}} must be "
                             + (">= 0" if zero_ok else "positive"))

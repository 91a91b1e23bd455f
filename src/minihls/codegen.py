"""Functions from generated Python text, for `interp` and `sim`."""


def define(text: str, name: str, scope: dict, fn: str = "run"):
    """The function `fn` that `text` defines in `scope`, taken out of the
    scope it keeps as its globals, or None if Python refuses `text` for
    nesting blocks or indentation deeper than it allows."""
    try:
        exec(compile(text, name, "exec"), scope)
    except SyntaxError:
        return None
    return scope.pop(fn)


def indent(lines: list) -> list:
    return ["    " + line for line in lines]

"""Read ``gridlc`` arguments against a table of commands and options.

The table maps each command to its handler, help and options, and each
option to its spec as the usage line shows it, converter, default and help.
A spec's metavar has a word per value, or the choices in braces; a
bracketed flag is optional, exactly one flag of a group "(a | b | c)" is
given, and a bare flag is required.  ``cli.main`` imports this module, so
importing ``gridlc.cli`` compiles no parsing code.
"""

import sys
from itertools import islice
from types import SimpleNamespace


def _exit(commands: dict, name: str, error: str | None = None):
    """Print help and exit 0, or the usage line and one ``error:`` line and exit 2."""
    prog, options = (f"gridlc {name}", commands[name][2]) if name else ("gridlc", ())
    specs = [option[0] for option in options] or ["{" + ",".join(commands) + "} ..."]
    usage = " ".join([f"usage: {prog} [-h]"] + specs)
    if error:
        sys.stderr.write(f"{usage}\n{prog}: error: {error}\n")
        raise SystemExit(2)
    rows = [(o[0].strip("[]()| "), o[3]) for o in options] or [
        (command, entry[1]) for command, entry in commands.items()]
    width = max([len(left) for left, _ in rows])
    print("\n".join([usage] + [f"  {left.ljust(width)}  {right}" for left, right in rows]))
    raise SystemExit(0)


def parse(commands: dict, argv: list[str]) -> SimpleNamespace:
    """The handler and option values for ``argv``; ``-h`` and usage errors exit."""
    name = argv[0] if argv else ""
    if name not in commands:
        error = f"unknown command {name!r}" if name else "no command given"
        _exit(commands, "", None if name in ("-h", "--help") else error)
    table = dict([(option[0].strip("[]()| ").split()[0], option) for option in commands[name][2]])
    given, rest = {}, iter(argv[1:])
    for word in rest:
        flag, equals, attached = word.partition("=")
        if flag not in table:
            error = f"unrecognized argument {word!r}"
            _exit(commands, name, None if word in ("-h", "--help") else error)
        metavar, convert = table[flag][0].strip("[]()| ").split()[1:], table[flag][1]
        words = [attached] if equals else list(islice(rest, len(metavar)))
        choices = metavar[0][1:-1].split(",") if metavar[0].startswith("{") else None
        try:
            if len(words) < len(metavar) or choices and words[0] not in choices:
                raise ValueError("expects " + " ".join(metavar))
            given[flag] = [convert(w) for w in words] if len(words) > 1 else convert(words[0])
        except ValueError as exc:
            _exit(commands, name, f"{flag}: {exc}")
    missing = [flag for flag, option in table.items() if option[0][0] == "-" and flag not in given]
    group = [flag for flag, option in table.items() if option[0][0] in "(|"]
    if missing or group and len(set(group) & set(given)) != 1:
        error = ", ".join(missing) or "exactly one of " + ", ".join(group)
        _exit(commands, name, "give " + error)
    # A command without --output, such as slice, always prints JSON.
    args = SimpleNamespace(handler=commands[name][0], output="json")
    for flag, option in table.items():
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, option[2]))
    return args

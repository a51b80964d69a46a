"""Generator-driven simulation processes.

A :class:`Process` wraps a Python generator.  The generator *yields*
request objects; an interpreter callback (supplied by the owner, e.g. the
processor model) decides what each request means and, some number of
simulated cycles later, calls :meth:`Process.resume` with a result.  The
result becomes the value of the ``yield`` expression inside the generator.

This is the standard coroutine-process pattern for execution-driven
simulation: the generator is the "program", the interpreter is the
"hardware".
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..errors import SimulationError

__all__ = ["Process"]

ProgramGen = Generator[Any, Any, Any]


class Process:
    """Drives one program generator to completion.

    Args:
        name: Human-readable identifier (used in error messages).
        generator: The program.  Each yielded value is passed to
            ``interpreter``; the process stays blocked until
            :meth:`resume` is called.
        interpreter: Callback ``interpreter(process, request)`` invoked for
            every yielded value.  It must eventually call
            ``process.resume(result)`` (possibly synchronously).
        on_exit: Optional callback invoked once when the generator returns.
    """

    def __init__(
        self,
        name: str,
        generator: ProgramGen,
        interpreter: Callable[["Process", Any], None],
        on_exit: Optional[Callable[["Process"], None]] = None,
    ) -> None:
        self.name = name
        self._gen = generator
        self._interpreter = interpreter
        self._on_exit = on_exit
        self.done = False
        self.result: Any = None
        self._blocked = False

    def start(self) -> None:
        """Advance the generator to its first yield."""
        self._blocked = True  # a fresh generator waits on its first step
        self.resume(None)

    def resume(self, value: Any = None) -> None:
        """Deliver ``value`` as the result of the pending request.

        Steps the generator to its next yield and hands that request to
        the interpreter (one call per operation: this is the processor's
        hot path).
        """
        if self.done:
            raise SimulationError(f"process {self.name!r} resumed after exit")
        if not self._blocked:
            raise SimulationError(f"process {self.name!r} resumed while not blocked")
        self._blocked = False
        try:
            request = self._gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            if self._on_exit is not None:
                self._on_exit(self)
            return
        self._blocked = True
        self._interpreter(self, request)

    @property
    def blocked(self) -> bool:
        """True while the process waits for :meth:`resume`."""
        return self._blocked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("blocked" if self._blocked else "ready")
        return f"Process({self.name!r}, {state})"

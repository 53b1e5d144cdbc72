"""Exception hierarchy for the kernel.

Every failure mode of a kernel operation is a subclass of ``KernelError`` so
callers can catch checking failures without masking programming errors.
"""


class KernelError(Exception):
    pass


# raw syntax
class ArityMismatch(KernelError):
    pass


class UnboundIndex(KernelError):
    pass


class UnknownSymbol(KernelError):
    pass


class UnknownMeta(KernelError):
    pass


class VarInAnnotation(KernelError):
    pass


# judgements and boundaries
class NotObjectBoundary(KernelError):
    pass


class NotEqualityBoundary(KernelError):
    pass


# instantiations
class IndexOutOfRange(KernelError):
    pass


# rules and theories
class SymbolExists(KernelError):
    pass


class MetaNotIntroduced(KernelError):
    pass


class MetaIntroducedTwice(KernelError):
    pass


class FreeVarInRule(KernelError):
    pass


class UnknownRule(KernelError):
    pass


class ConclusionNotDerivableOverPrefix(KernelError):
    def __init__(self, rule_name: str, obligation: str):
        super().__init__(f"rule {rule_name}: cannot derive {obligation}")
        self.rule_name = rule_name
        self.obligation = obligation


class DuplicateSymbolRule(KernelError):
    pass


class NotObjectRule(KernelError):
    pass


# tt engine
class BadNode(KernelError):
    pass


class SideConditionFailed(KernelError):
    pass


class MissingContextEvidence(KernelError):
    pass


class NoSymbolRule(KernelError):
    pass


class UnknownVar(KernelError):
    pass


class NotObjectJudgement(KernelError):
    pass


# cf engine
class AnnotationMismatch(KernelError):
    pass


class PremiseMismatch(KernelError):
    pass


class ErasureMismatch(KernelError):
    pass


class TypeMismatch(KernelError):
    pass


class BinderUsed(KernelError):
    pass


class BoundaryExceedsPremises(KernelError):
    pass


class NonStandardTheory(KernelError):
    pass


# translation
class UnsuitableContext(KernelError):
    pass


class UncheckableDerivation(KernelError):
    pass


class DepthExceeded(KernelError):
    """An input nested deeper than the translation's explicit limit."""


# surface
class ParseError(KernelError):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column

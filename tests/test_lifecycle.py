"""End-to-end lifecycle tests: the paper's Fig. 2 scenario executed (E1/E2/E4)."""

import pytest

from repro.core import MdaLifecycle
from repro.errors import (
    AccessDeniedError,
    AuthenticationError,
    RemoteInvocationError,
    TransactionAborted,
    WorkflowError,
)
from repro.metamodel import validate
from repro.uml import find_element, has_stereotype
from repro.workflow import WorkflowModel

from helpers import FULL_BANK_PARAMS


class TestRefinementPhase:
    def test_three_concerns_applied_in_order(self, lifecycle):
        for concern, params in FULL_BANK_PARAMS.items():
            lifecycle.apply_concern(concern, **params)
        assert lifecycle.applied_concerns == [
            "distribution",
            "transactions",
            "security",
        ]
        assert lifecycle.remaining_concerns() == [
            "logging",
            "platform",
            "platform-abstraction",
        ]
        assert validate(lifecycle.repository.resource) == []

    def test_each_application_committed(self, lifecycle):
        lifecycle.apply_concern("distribution", **FULL_BANK_PARAMS["distribution"])
        log = lifecycle.repository.log()
        assert len(log) == 2  # the initial PIM + the applied transformation
        assert "initial PIM" in log[0]
        assert "T_distribution" in log[1]

    def test_aspect_queue_matches_application_order(self, lifecycle):
        for concern, params in FULL_BANK_PARAMS.items():
            lifecycle.apply_concern(concern, **params)
        names = lifecycle.plan.order()
        assert names[0].startswith("A_distribution")
        assert names[1].startswith("A_transactions")
        assert names[2].startswith("A_security")

    def test_cmt_and_ca_share_si(self, lifecycle):
        lifecycle.apply_concern("distribution", **FULL_BANK_PARAMS["distribution"])
        cmt, ca = lifecycle.applied[0]
        assert ca.parameter_set is cmt.parameter_set

    def test_workflow_gates_application(self, bank_resource, services):
        workflow = WorkflowModel()
        workflow.add_step("distribution")
        workflow.add_step("transactions", requires=["distribution"])
        lifecycle = MdaLifecycle(bank_resource, services=services, workflow=workflow)
        with pytest.raises(WorkflowError):
            lifecycle.apply_concern(
                "transactions", **FULL_BANK_PARAMS["transactions"]
            )
        lifecycle.apply_concern("distribution", **FULL_BANK_PARAMS["distribution"])
        lifecycle.apply_concern("transactions", **FULL_BANK_PARAMS["transactions"])

    def test_summary_renders_fig2(self, lifecycle):
        for concern, params in FULL_BANK_PARAMS.items():
            lifecycle.apply_concern(concern, **params)
        text = lifecycle.summary()
        assert "T_distribution" in text and "A_distribution" in text
        assert "0:" in text and "2:" in text

    def test_aspect_sources_generated_per_concern(self, lifecycle):
        for concern, params in FULL_BANK_PARAMS.items():
            lifecycle.apply_concern(concern, **params)
        sources = lifecycle.generate_aspect_sources()
        assert len(sources) == 3
        for source in sources.values():
            compile(source, "<ca>", "exec")


class TestWovenApplication:
    def test_functional_behaviour_preserved(self, woven_bank):
        module, services = woven_bank["module"], woven_bank["services"]
        account = module.Account(balance=50.0)
        with services.orb.call_context(credentials=woven_bank["credential"].token):
            assert account.deposit(25.0) == 75.0
            assert account.getBalance() == 75.0

    def test_distribution_active(self, woven_bank):
        module, services = woven_bank["module"], woven_bank["services"]
        account = module.Account(balance=1.0)
        before = services.bus.messages_delivered
        account.getBalance()
        assert services.bus.messages_delivered == before + 1

    def test_security_gates_transfer(self, woven_bank):
        module = woven_bank["module"]
        bank, a, b = module.Bank(), module.Account(balance=10), module.Account()
        with pytest.raises(AuthenticationError):
            bank.transfer(a, b, 1.0)

    def test_wrong_role_denied(self, woven_bank):
        module, services = woven_bank["module"], woven_bank["services"]
        services.credentials.add_user("mallory", "pw", roles=["nobody"])
        cred = services.auth.login("mallory", "pw")
        bank, a, b = module.Bank(), module.Account(balance=10), module.Account()
        with services.orb.call_context(credentials=cred.token):
            with pytest.raises(AccessDeniedError):
                bank.transfer(a, b, 1.0)

    def test_authorized_transfer_moves_money(self, woven_bank):
        module, services = woven_bank["module"], woven_bank["services"]
        bank = module.Bank()
        a = module.Account(balance=100.0)
        b = module.Account(balance=0.0)
        with services.orb.call_context(credentials=woven_bank["credential"].token):
            assert bank.transfer(a, b, 30.0) is True
        assert (a.balance, b.balance) == (70.0, 30.0)
        assert services.transactions.commits >= 1

    def test_failed_transfer_is_atomic(self, woven_bank):
        module, services = woven_bank["module"], woven_bank["services"]
        bank = module.Bank()
        a = module.Account(balance=10.0)
        b = module.Account(balance=5.0)
        aborts_before = services.transactions.aborts
        with services.orb.call_context(credentials=woven_bank["credential"].token):
            with pytest.raises((ValueError, RemoteInvocationError, TransactionAborted)):
                bank.transfer(a, b, 10_000.0)
        assert (a.balance, b.balance) == (10.0, 5.0)
        assert services.transactions.aborts > aborts_before

    def test_audit_log_populated(self, woven_bank):
        module, services = woven_bank["module"], woven_bank["services"]
        bank, a, b = module.Bank(), module.Account(balance=5), module.Account()
        with services.orb.call_context(credentials=woven_bank["credential"].token):
            bank.transfer(a, b, 1.0)
        allowed = [r for r in services.audit.snapshot() if r.outcome == "allow"]
        assert any(r.resource == "Bank.transfer" for r in allowed)

    def test_model_marks_match_runtime(self, woven_bank):
        """The refined model's stereotypes describe exactly what runs."""
        model = woven_bank["lifecycle"].repository.resource.roots[0]
        assert has_stereotype(find_element(model, "accounts.Account"), "Remote")
        assert has_stereotype(
            find_element(model, "accounts.Bank.transfer"), "Transactional"
        )
        assert has_stereotype(
            find_element(model, "accounts.Bank.transfer"), "Secured"
        )

    def test_aspect_ranks_match_application_order(self, woven_bank):
        plan = woven_bank["lifecycle"].plan
        assert [ca.rank for ca in plan.aspects] == [0, 1, 2]


class TestPrecedenceExperiment:
    """E4: reordering transformations reorders advice execution."""

    @staticmethod
    def _run(order):
        from helpers import build_bank_model
        from repro.core import MiddlewareServices

        resource, _ = build_bank_model()
        services = MiddlewareServices.create()
        lifecycle = MdaLifecycle(resource, services=services)
        params = {
            "logging": dict(log_patterns=["Account.withdraw"]),
            "transactions": dict(
                transactional_ops=["Account.withdraw"], state_classes=["Account"]
            ),
        }
        for concern in order:
            lifecycle.apply_concern(concern, **params[concern])
        module = lifecycle.build_application(f"precedence_{'_'.join(order)}")
        log_aspect = next(
            ca.build(services)
            for _, ca in lifecycle.applied
            if ca.name.startswith("A_logging")
        )
        account = module.Account(balance=1.0)
        with pytest.raises(ValueError):
            account.withdraw(100.0)
        manager = services.transactions
        return log_aspect.records, manager

    def test_logging_first_sees_the_raw_exception(self):
        records, manager = self._run(["logging", "transactions"])
        # logging is outermost: it observes the raise leaving the tx wrapper
        assert ("info", "raise", "Account.withdraw") in records
        assert manager.aborts == 1

    def test_transactions_first_wraps_inside_logging(self):
        records, manager = self._run(["transactions", "logging"])
        assert ("info", "raise", "Account.withdraw") in records
        assert manager.aborts == 1

    def test_order_recorded_differs(self):
        _, m1 = self._run(["logging", "transactions"])
        _, m2 = self._run(["transactions", "logging"])
        # both behave, but deployment ranks differ
        assert m1.aborts == m2.aborts == 1

#!/usr/bin/env sh
# Runs the chaos replay (four-phase fault-injected LLM backend over the
# eval corpus) and writes its report — per-phase outcomes, availability,
# breaker opens, degraded answers, retries — to CHAOS.json at the repo
# root. The run exits non-zero when the resilience contract is broken
# (any server error, breaker never opens, or never recloses), so CI gets
# both a hard gate and an artifact.
set -eu
cd "$(dirname "$0")/.."
go run ./cmd/chatiyp-eval -small -per-template 1 -chaos -chaos-json CHAOS.json

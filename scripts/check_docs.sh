#!/usr/bin/env bash
# check_docs.sh keeps the docs/ tier honest: it resolves every relative
# markdown link, cross-checks the HTTP route and job-error-code tables in
# docs/HTTP_API.md against cmd/serve, checks the adaptive sweep surface
# against docs/SWEEPS.md, and greps each CLI's registered flags against
# its own -h doc comment so usage blocks cannot rot silently. Pure grep —
# no build step — so the CI docs job stays fast.
set -u
cd "$(dirname "$0")/.."

fail=0
err() {
  echo "check_docs: $*" >&2
  fail=1
}

# --- required docs exist -------------------------------------------------
for f in docs/ARCHITECTURE.md docs/HTTP_API.md docs/SWEEPS.md docs/PERFORMANCE.md docs/OBSERVABILITY.md; do
  [ -f "$f" ] || err "missing $f"
done

# --- relative markdown links resolve -------------------------------------
# Links to other repos/hosts (http*, mailto) and GitHub-relative paths
# that escape the repository (the CI badge) are skipped; anchors are
# stripped before the existence check.
root=$(pwd)
for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  base=$(dirname "$doc")
  while IFS= read -r target; do
    case "$target" in
    http://* | https://* | mailto:* | "#"*) continue ;;
    esac
    target="${target%%#*}"
    [ -n "$target" ] || continue
    resolved=$(realpath -m "$base/$target" 2>/dev/null) || resolved=""
    case "$resolved" in
    "$root"/*) [ -e "$resolved" ] || err "$doc: broken link '$target'" ;;
    *) ;; # escapes the repo (e.g. ../../actions/... badge): not checkable here
    esac
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//')
done

# --- every registered HTTP route is documented ---------------------------
# Routes register through the observability middleware (s.handle) or, for
# the pprof side listener, plain HandleFunc; scrape both forms.
while IFS= read -r route; do
  path=${route#* } # "POST /v1/analyze" -> "/v1/analyze"
  grep -qF "$path" docs/HTTP_API.md || err "route '$route' (cmd/serve) missing from docs/HTTP_API.md"
done < <(sed -n -e 's/.*s\.handle("\([^"]*\)".*/\1/p' -e 's/.*HandleFunc("\([^"]*\)".*/\1/p' cmd/serve/main.go cmd/serve/obs.go)

# --- every job error code is documented ----------------------------------
while IFS= read -r code; do
  grep -qF "\`$code\`" docs/HTTP_API.md || err "job error code '$code' (cmd/serve/jobs.go) missing from docs/HTTP_API.md"
done < <(sed -n 's/.*httpErrorCode(w, r, err, [^,]*, "\([a-z_]*\)").*/\1/p' cmd/serve/jobs.go)

# --- the adaptive sweep surface is documented ----------------------------
for flag in adaptive tolerance max-depth max-points; do
  grep -qE "\"$flag\"" cmd/sweep/main.go || err "cmd/sweep no longer registers -$flag; update docs/SWEEPS.md"
  grep -qF -- "-$flag" docs/SWEEPS.md || err "flag -$flag missing from docs/SWEEPS.md"
done
for field in adaptive tolerance max_depth max_points; do
  grep -qF "json:\"$field,omitempty\"" cmd/serve/main.go || err "cmd/serve no longer carries the '$field' sweep field; update docs"
  grep -qF "\`$field\`" docs/HTTP_API.md || err "sweep field '$field' missing from docs/HTTP_API.md"
  grep -qF "\`$field\`" docs/SWEEPS.md || err "sweep field '$field' missing from docs/SWEEPS.md"
done
for field in refine_depth p_index; do
  grep -qF "\`$field\`" docs/HTTP_API.md || err "stream field '$field' missing from docs/HTTP_API.md"
done

# --- every documented request field still exists --------------------------
# Each backticked name in the first column of a "| field | type | meaning |"
# table must be a JSON tag the server or the job specs still decode, so a
# removed field cannot linger in the wire contract.
while IFS= read -r field; do
  grep -qrF --include='*.go' --exclude='*_test.go' "json:\"$field" cmd/serve selfishmining/jobs ||
    err "docs/HTTP_API.md documents field '$field', which no json tag in cmd/serve or selfishmining/jobs carries"
done < <(awk -F'|' '
  /^\| field \| type \| meaning \|/ { table = 1; next }
  table && !/^\|/ { table = 0 }
  table && $2 !~ /^ *-+ *$/ { print $2 }
' docs/HTTP_API.md | grep -oE '`[a-z_]+`' | tr -d '`' | sort -u)

# --- the multi-replica lease surface is documented ------------------------
# The serve flags themselves are covered by the generic -h drift check
# below; these rules pin the wire-visible lease surface. bad_limit is
# raised through a formatted error, so the error-code scrape above never
# sees it — pin it explicitly.
for flag in replica-id jobs-lease-ttl jobs-heartbeat jobs-poll; do
  grep -qF "\"$flag\"" cmd/serve/main.go || err "cmd/serve no longer registers -$flag; update docs/HTTP_API.md"
  grep -qF -- "-$flag" docs/HTTP_API.md || err "replica flag -$flag missing from docs/HTTP_API.md"
done
for field in owner lease_token lease_expires; do
  grep -qF "json:\"$field,omitempty\"" selfishmining/jobs/jobs.go || err "job status no longer carries '$field'; update docs/HTTP_API.md"
  grep -qF "\`$field\`" docs/HTTP_API.md || err "lease field '$field' missing from docs/HTTP_API.md"
done
for field in replica remote_running leases replicas; do
  grep -qF "\`$field\`" docs/HTTP_API.md || err "stats field '$field' missing from docs/HTTP_API.md"
done
grep -qF '`bad_limit`' docs/HTTP_API.md || err "job error code 'bad_limit' missing from docs/HTTP_API.md"
for term in "fencing token" lease; do
  grep -qiF "$term" docs/ARCHITECTURE.md || err "'$term' missing from docs/ARCHITECTURE.md (lease protocol section)"
done

# --- the observability surface is documented ------------------------------
# Every metric family CI requires must be documented in the catalog AND
# still registered somewhere in source, so a rename or removal fails here
# before a dashboard goes dark.
while IFS= read -r name; do
  [ -n "$name" ] || continue
  grep -qF "\`$name\`" docs/OBSERVABILITY.md || err "metric '$name' (scripts/required_metrics.txt) missing from docs/OBSERVABILITY.md"
  grep -qrF "\"$name\"" --include='*.go' cmd/ internal/ selfishmining/ || err "metric '$name' (scripts/required_metrics.txt) not registered anywhere in source"
done < <(grep -vE '^(#|$)' scripts/required_metrics.txt)
for flag in log-level log-format pprof-addr; do
  grep -qF "\"$flag\"" cmd/serve/main.go || err "cmd/serve no longer registers -$flag; update docs/OBSERVABILITY.md"
  grep -qF -- "-$flag" docs/OBSERVABILITY.md || err "flag -$flag missing from docs/OBSERVABILITY.md"
done
grep -qF 'json:"request_id,omitempty"' selfishmining/jobs/jobs.go || err "job status no longer carries 'request_id'; update docs"
for field in request_id; do
  grep -qF "\`$field\`" docs/HTTP_API.md || err "field '$field' missing from docs/HTTP_API.md"
  grep -qF "\`$field\`" docs/OBSERVABILITY.md || err "field '$field' missing from docs/OBSERVABILITY.md"
done
for route in /metrics /readyz; do
  grep -qF "$route" docs/OBSERVABILITY.md || err "route $route missing from docs/OBSERVABILITY.md"
done
grep -qF "X-Request-ID" docs/HTTP_API.md || err "X-Request-ID header missing from docs/HTTP_API.md"

# --- every CLI and example is referenced ---------------------------------
for d in cmd/*/; do
  n=$(basename "$d")
  grep -qF "$n" README.md || err "cmd/$n not mentioned in README.md"
done
for d in examples/*/; do
  n=$(basename "$d")
  grep -qrF "$n" README.md docs/ || err "examples/$n not mentioned in README.md or docs/"
done

# --- CLI -h drift: registered flags appear in the doc comment ------------
# Each command's package doc comment is its -h text's long form; a flag
# registered in code but absent from the comment is silent drift.
for main in cmd/*/main.go; do
  n=$(basename "$(dirname "$main")")
  doc=$(sed -n '1,/^package /p' "$main" | grep '^//')
  while IFS= read -r f; do
    [ -n "$f" ] || continue
    printf '%s\n' "$doc" | grep -q -- "-$f" || err "cmd/$n: flag -$f not in its doc comment (go doc ./cmd/$n)"
  done < <(sed -n -e 's/.*fs\.[A-Za-z0-9]*Var([^,]*, "\([a-zA-Z0-9-]*\)".*/\1/p' \
    -e 's/.*fs\.\(String\|Int\|Bool\|Float64\|Duration\|Int64\)("\([a-zA-Z0-9-]*\)".*/\2/p' "$main" | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK"

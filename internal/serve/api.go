package serve

// This file holds the wire types of the HTTP JSON API — the request and
// response bodies of every /v1 endpoint. They are shared by the server
// handlers, the hndload closed-loop load generator, and the tests, so the
// three can never drift apart.

// CreateTenantRequest is the body of POST /v1/tenants: it declares a new
// tenant's response-matrix geometry. Options follows the variadic contract
// of NewResponseMatrix: one entry gives every item that option count, and
// a full per-item list pins each item individually.
type CreateTenantRequest struct {
	// Name identifies the tenant in every subsequent request.
	Name string `json:"name"`
	// Users is the number of users the tenant tracks.
	Users int `json:"users"`
	// Items is the number of multiple-choice items.
	Items int `json:"items"`
	// Options holds the per-item option counts (len 1 = uniform).
	Options []int `json:"options"`
}

// TenantInfo describes one tenant in create/list responses.
type TenantInfo struct {
	// Name is the tenant identifier.
	Name string `json:"name"`
	// Users and Items give the tenant's matrix geometry.
	Users int `json:"users"`
	// Items is the item count (see Users).
	Items int `json:"items"`
	// Shards is the number of engine shards serving the tenant (one
	// shard serves exactly as a plain Engine).
	Shards int `json:"shards"`
	// Method is the registered ranking method the tenant serves.
	Method string `json:"method"`
	// Generation is the tenant's current write generation: one tick per
	// answer applied (summed over shards for sharded tenants).
	Generation uint64 `json:"generation"`
}

// ListTenantsResponse is the body of GET /v1/tenants.
type ListTenantsResponse struct {
	// Tenants lists every tenant in name order.
	Tenants []TenantInfo `json:"tenants"`
}

// Observation is one (user, item, option) response on the wire. Option
// follows the library contract: the chosen option index, or -1
// (hitsndiffs.Unanswered) to retract an earlier answer.
type Observation struct {
	// User is the responding user's index.
	User int `json:"user"`
	// Item is the answered item's index.
	Item int `json:"item"`
	// Option is the chosen option index, or -1 to retract.
	Option int `json:"option"`
}

// ObserveRequest is the body of POST /v1/observe: one observation applied
// to one tenant under admission control.
type ObserveRequest struct {
	// Tenant names the target tenant.
	Tenant string `json:"tenant"`
	// User, Item, Option are the observation (see Observation).
	User int `json:"user"`
	// Item is the answered item's index.
	Item int `json:"item"`
	// Option is the chosen option index, or -1 to retract.
	Option int `json:"option"`
}

// ObserveBatchRequest is the body of POST /v1/observebatch: several
// observations applied to one tenant under one admission permit and one
// lock acquisition per touched shard — the cheap way to absorb a burst.
type ObserveBatchRequest struct {
	// Tenant names the target tenant.
	Tenant string `json:"tenant"`
	// Observations is the batch, validated before anything is applied.
	Observations []Observation `json:"observations"`
}

// ObserveResponse is the body of a successful observe/observebatch call.
type ObserveResponse struct {
	// Generation is the tenant's write generation after the batch applied.
	Generation uint64 `json:"generation"`
	// Applied is the number of observations recorded.
	Applied int `json:"applied"`
}

// RankRequest is the body of POST /v1/rank.
type RankRequest struct {
	// Tenant names the tenant to rank.
	Tenant string `json:"tenant"`
}

// RankResponse carries one tenant's ranking. The rank handlers encode it
// directly into a pooled buffer, byte for byte as encoding/json would:
// each score is the shortest decimal that decodes back to the same
// float64, so scores round-trip bitwise — the property the golden
// equivalence tests pin. A NaN or infinite score has no JSON form and
// answers 500.
type RankResponse struct {
	// Tenant echoes the ranked tenant's name (set in batch responses).
	Tenant string `json:"tenant,omitempty"`
	// Generation is the matrix write generation the scores were solved at.
	Generation uint64 `json:"generation"`
	// Staleness is how many write generations the matrix had advanced past
	// Generation when the scores were served: 0 means exact, positive means
	// the response rode the server's staleness bound and never exceeds it.
	Staleness uint64 `json:"staleness"`
	// Scores holds one ability score per user; higher is better.
	Scores []float64 `json:"scores"`
	// Iterations and Converged mirror hitsndiffs.Result.
	Iterations int `json:"iterations"`
	// Converged reports whether the solve met its tolerance.
	Converged bool `json:"converged"`
	// Coalesced reports whether this request rode a solve of the same
	// matrix that another call had started, instead of starting its own.
	Coalesced bool `json:"coalesced"`
}

// RankBatchRequest is the body of POST /v1/rankbatch: rank several tenants
// in one request. Each tenant resolves through the same path as a single
// rank, so concurrent batches share in-flight solves.
type RankBatchRequest struct {
	// Tenants names the tenants to rank, in response order.
	Tenants []string `json:"tenants"`
}

// RankBatchResponse is the body of a successful rankbatch call.
type RankBatchResponse struct {
	// Results holds one ranking per requested tenant, in request order.
	Results []RankResponse `json:"results"`
}

// InferLabelsRequest is the body of POST /v1/inferlabels.
type InferLabelsRequest struct {
	// Tenant names the tenant whose item labels to infer.
	Tenant string `json:"tenant"`
}

// InferLabelsResponse is the body of a successful inferlabels call.
type InferLabelsResponse struct {
	// Generation is the matrix write generation the labels were inferred
	// at.
	Generation uint64 `json:"generation"`
	// Labels holds each item's estimated correct option index.
	Labels []int `json:"labels"`
}

// HandoffRequest is the body of POST /v1/admin/handoff — one step of the
// cross-process shard migration protocol. Action selects the step:
//
//	"export"  (source) snapshot + fence the shard and publish the bundle;
//	          the shard rejects writes with 429 until abort or commit
//	"import"  (target) validate the bundle, adopt the state into this
//	          server's same-named tenant, and publish the owner record
//	"abort"   (source) cancel an in-flight export and resume writes
//	"status"  resolve who owns the bundle's shard
//
// The bundle directory must be reachable from both processes (a shared
// filesystem or a copied directory).
type HandoffRequest struct {
	// Tenant names the tenant whose shard is moving.
	Tenant string `json:"tenant"`
	// Shard is the moving shard's index (0 for one-shard tenants).
	Shard int `json:"shard"`
	// Action is one of "export", "import", "abort", "status".
	Action string `json:"action"`
	// BundleDir is the bundle directory the export writes and the import
	// reads.
	BundleDir string `json:"bundle_dir"`
	// Target, on export, records the intended new owner (its base URL) in
	// the source's durable intent — the address fenced writes redirect to
	// once the move commits.
	Target string `json:"target"`
	// Owner, on import, is the identity the target commits as — its own
	// base URL, which sources use as the redirect Location.
	Owner string `json:"owner"`
}

// HandoffResponse is the body of a successful admin/handoff call.
type HandoffResponse struct {
	// Tenant and Shard echo the request.
	Tenant string `json:"tenant"`
	// Shard is the moving shard's index.
	Shard int `json:"shard"`
	// Phase reports the step completed: "exported", "imported",
	// "aborted", or "status".
	Phase string `json:"phase"`
	// SnapshotGeneration and FencedGeneration are the bundle's generation
	// bounds (export/import).
	SnapshotGeneration uint64 `json:"snapshot_generation,omitempty"`
	// FencedGeneration is the write frontier the shard was fenced at.
	FencedGeneration uint64 `json:"fenced_generation,omitempty"`
	// TailRecords counts the WAL records shipped after the snapshot.
	TailRecords int `json:"tail_records,omitempty"`
	// Owner is the committed owner identity (import/status), empty while
	// uncommitted.
	Owner string `json:"owner,omitempty"`
	// Committed reports whether the owner record has been published.
	Committed bool `json:"committed"`
}

// PartitionRequest is the body of POST /v1/admin/partition: report one
// tenant's user-to-shard ownership map.
type PartitionRequest struct {
	// Tenant names the tenant to inspect.
	Tenant string `json:"tenant"`
}

// ShardOwnershipInfo is one shard's row in a PartitionResponse.
type ShardOwnershipInfo struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Users is the number of users the shard owns.
	Users int `json:"users"`
	// Generation is the shard's write-generation frontier.
	Generation uint64 `json:"generation"`
	// Fenced reports whether the shard currently rejects writes for a
	// handoff.
	Fenced bool `json:"fenced"`
	// MovedTo is the committed new owner's identity once the shard has
	// migrated away; writes are redirected there with 307.
	MovedTo string `json:"moved_to,omitempty"`
}

// PartitionResponse is the body of a successful admin/partition call.
type PartitionResponse struct {
	// Tenant echoes the inspected tenant.
	Tenant string `json:"tenant"`
	// Users is the tenant's total user count.
	Users int `json:"users"`
	// Shards is the tenant's shard count.
	Shards int `json:"shards"`
	// Partition holds one row per shard.
	Partition []ShardOwnershipInfo `json:"partition"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// HealthResponse is the body of GET /healthz: 200/"ok" while serving,
// 503/"draining" once graceful shutdown has begun.
type HealthResponse struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Tenants is the number of tenants currently hosted.
	Tenants int `json:"tenants"`
}

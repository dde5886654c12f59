//! Every steward route's response, pinned byte for byte: the 200
//! acknowledgements of a session that builds a small ontology through the
//! routes, and the 4xx bodies of the ways a steward body can be rejected.
//! Driven through `routes::dispatch` on an in-memory `AppState`, no socket.

use mdm_core::Mdm;
use mdm_server::http::Request;
use mdm_server::routes::dispatch;
use mdm_server::state::AppState;
use mdm_server::ServerConfig;

fn post(state: &AppState, path: &str, body: &str) -> (u16, String) {
    let request = Request {
        method: "POST".to_string(),
        path: path.to_string(),
        query: None,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let response = dispatch(state, &request);
    (
        response.status,
        String::from_utf8(response.body).expect("UTF-8 body"),
    )
}

fn fresh() -> AppState {
    AppState::new(Mdm::new(), &ServerConfig::default(), None, None)
}

/// The body every wrapper rejection below starts from.
const W: &str = r#""name": "w3", "source": "PlayersAPI", "version": 3, "payload": "[]""#;

/// `(path, body, status, response body)`, in the order they are sent: a
/// session whose every step is acknowledged, then requests each route
/// rejects (missing or unresolvable fields, ontology, registration and
/// mapping errors), none of which may move the epoch.
fn table() -> Vec<(&'static str, String, u16, &'static str)> {
    vec![
        (
            "/steward/concepts",
            r#"{"concept": "ex:Player"}"#.to_string(),
            200,
            r#"{"concept":"http://www.essi.upc.edu/~snadal/example/Player","epoch":1,"ok":true}"#,
        ),
        (
            "/steward/concepts",
            r#"{"concept": "<http://schema.org/SportsTeam>"}"#.to_string(),
            200,
            r#"{"concept":"http://schema.org/SportsTeam","epoch":2,"ok":true}"#,
        ),
        (
            "/steward/features",
            r#"{"concept": "ex:Player", "feature": "ex:playerId", "identifier": true}"#.to_string(),
            200,
            r#"{"epoch":3,"feature":"http://www.essi.upc.edu/~snadal/example/playerId","ok":true}"#,
        ),
        (
            "/steward/features",
            r#"{"concept": "ex:Player", "feature": "ex:playerName"}"#.to_string(),
            200,
            r#"{"epoch":4,"feature":"http://www.essi.upc.edu/~snadal/example/playerName","ok":true}"#,
        ),
        (
            "/steward/features",
            r#"{"concept": "sc:SportsTeam", "feature": "ex:teamId", "identifier": true}"#.to_string(),
            200,
            r#"{"epoch":5,"feature":"http://www.essi.upc.edu/~snadal/example/teamId","ok":true}"#,
        ),
        (
            "/steward/features",
            r#"{"concept": "sc:SportsTeam", "feature": "ex:teamName", "identifier": false}"#.to_string(),
            200,
            r#"{"epoch":6,"feature":"http://www.essi.upc.edu/~snadal/example/teamName","ok":true}"#,
        ),
        (
            "/steward/relations",
            r#"{"from": "ex:Player", "property": "ex:hasTeam", "to": "sc:SportsTeam"}"#.to_string(),
            200,
            r#"{"epoch":7,"ok":true,"property":"http://www.essi.upc.edu/~snadal/example/hasTeam"}"#,
        ),
        (
            "/steward/concepts",
            r#"{"concept": "ex:Goalkeeper"}"#.to_string(),
            200,
            r#"{"concept":"http://www.essi.upc.edu/~snadal/example/Goalkeeper","epoch":8,"ok":true}"#,
        ),
        (
            "/steward/subconcepts",
            r#"{"sub": "ex:Goalkeeper", "sup": "ex:Player"}"#.to_string(),
            200,
            r#"{"epoch":9,"ok":true,"sub":"http://www.essi.upc.edu/~snadal/example/Goalkeeper"}"#,
        ),
        (
            "/steward/sources",
            r#"{"name": "PlayersAPI"}"#.to_string(),
            200,
            r#"{"epoch":10,"ok":true,"source":"http://www.essi.upc.edu/~snadal/BDIOntology/instances/dataSource/PlayersAPI"}"#,
        ),
        (
            "/steward/wrappers",
            r#"{"name": "w1", "source": "PlayersAPI", "version": 1, "payload": "[{\"id\": 1, \"name\": \"a\", \"team\": 7}]", "attributes": ["id", "pName", "teamId"], "bindings": {"id": "id", "pName": "name", "teamId": "team"}}"#.to_string(),
            200,
            r#"{"epoch":11,"minted":["id","pName","teamId"],"ok":true,"reused":[],"wrapper":"http://www.essi.upc.edu/~snadal/BDIOntology/instances/wrapper/w1"}"#,
        ),
        (
            "/steward/wrappers",
            r#"{"name": "w2", "source": "PlayersAPI", "version": 2, "format": "csv", "notes": "v2", "payload": "id,name,nat\n1,a,AR\n", "attributes": ["id", "pName", "nationality"], "bindings": {"id": "id", "pName": "name", "nationality": "nat"}}"#.to_string(),
            200,
            r#"{"epoch":12,"minted":["nationality"],"ok":true,"reused":["id","pName"],"wrapper":"http://www.essi.upc.edu/~snadal/BDIOntology/instances/wrapper/w2"}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w1", "concepts": ["ex:Player", "sc:SportsTeam", "ex:Player"], "features": ["ex:playerId", "ex:playerName", "ex:teamId"], "relations": [{"from": "ex:Player", "property": "ex:hasTeam", "to": "sc:SportsTeam"}], "same_as": [{"attribute": "id", "feature": "ex:playerId"}, {"attribute": "pName", "feature": "ex:playerName"}, {"attribute": "teamId", "feature": "ex:teamId"}]}"#.to_string(),
            200,
            r#"{"epoch":13,"graph":"http://www.essi.upc.edu/~snadal/BDIOntology/instances/wrapper/w1","ok":true}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w2", "concepts": ["ex:Player"], "features": ["ex:playerId"], "same_as": [{"attribute": "id", "feature": "ex:playerId"}]}"#.to_string(),
            200,
            r#"{"epoch":14,"graph":"http://www.essi.upc.edu/~snadal/BDIOntology/instances/wrapper/w2","ok":true}"#,
        ),
        (
            "/steward/concepts",
            "{".to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"invalid JSON body: json parse error at 1:2: expected string key"}}"#,
        ),
        (
            "/steward/concepts",
            r#"{"concept": 5}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing string field 'concept'"}}"#,
        ),
        (
            "/steward/concepts",
            r#"{"concept": "zz:Thing"}"#.to_string(),
            400,
            r#"{"error":{"category":"walk","message":"unknown prefix in 'zz:Thing'"}}"#,
        ),
        (
            "/steward/features",
            r#"{"concept": "ex:Player"}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing string field 'feature'"}}"#,
        ),
        (
            "/steward/features",
            r#"{"concept": "sc:SportsTeam", "feature": "ex:playerName"}"#.to_string(),
            400,
            r#"{"error":{"category":"ontology","message":"feature 'http://www.essi.upc.edu/~snadal/example/playerName' already belongs to 'http://www.essi.upc.edu/~snadal/example/Player'; features belong to exactly one concept"}}"#,
        ),
        (
            "/steward/features",
            r#"{"concept": "ex:Player", "feature": "ex:playerKey", "identifier": true}"#.to_string(),
            400,
            r#"{"error":{"category":"ontology","message":"concept 'http://www.essi.upc.edu/~snadal/example/Player' already has identifier 'http://www.essi.upc.edu/~snadal/example/playerId'"}}"#,
        ),
        (
            "/steward/features",
            r#"{"concept": "ex:Ghost", "feature": "zz:x"}"#.to_string(),
            400,
            r#"{"error":{"category":"walk","message":"unknown prefix in 'zz:x'"}}"#,
        ),
        (
            "/steward/relations",
            r#"{"from": "ex:Player", "property": "ex:hasTeam"}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing string field 'to'"}}"#,
        ),
        (
            "/steward/relations",
            r#"{"from": "ex:Player", "property": "zz:p", "to": "sc:SportsTeam"}"#.to_string(),
            400,
            r#"{"error":{"category":"walk","message":"unknown prefix in 'zz:p'"}}"#,
        ),
        (
            "/steward/subconcepts",
            r#"{"sub": "ex:Goalkeeper"}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing string field 'sup'"}}"#,
        ),
        (
            "/steward/subconcepts",
            r#"{"sub": "ex:Ghost", "sup": "ex:Player"}"#.to_string(),
            400,
            r#"{"error":{"category":"ontology","message":"unknown concept 'http://www.essi.upc.edu/~snadal/example/Ghost'"}}"#,
        ),
        (
            "/steward/sources",
            r#"{}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing string field 'name'"}}"#,
        ),
        (
            "/steward/sources",
            r#"{"name": "bad name"}"#.to_string(),
            400,
            r#"{"error":{"category":"registration","message":"invalid source name 'bad name' (use alphanumerics, '_', '-')"}}"#,
        ),
        (
            "/steward/wrappers",
            r#"{"source": "PlayersAPI"}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing string field 'name'"}}"#,
        ),
        (
            "/steward/wrappers",
            r#"{"name": "w3", "source": "PlayersAPI", "payload": "[]"}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing unsigned field 'version'"}}"#,
        ),
        (
            "/steward/wrappers",
            format!(r#"{{{W}, "format": "yaml", "attributes": ["id"], "bindings": {{"id": "id"}}}}"#),
            400,
            r#"{"error":{"category":"protocol","message":"unknown format 'yaml' (expected json, xml or csv)"}}"#,
        ),
        (
            "/steward/wrappers",
            format!(r#"{{{W}, "attributes": [], "bindings": {{}}}}"#),
            400,
            r#"{"error":{"category":"protocol","message":"missing array field 'attributes'"}}"#,
        ),
        (
            "/steward/wrappers",
            format!(r#"{{{W}, "attributes": ["id"]}}"#),
            400,
            r#"{"error":{"category":"protocol","message":"missing object field 'bindings'"}}"#,
        ),
        (
            "/steward/wrappers",
            format!(r#"{{{W}, "attributes": ["id", "x"], "bindings": {{"id": "id"}}}}"#),
            400,
            r#"{"error":{"category":"protocol","message":"bindings lacks a column for attribute 'x'"}}"#,
        ),
        (
            "/steward/wrappers",
            format!(r#"{{{W}, "attributes": ["id", "id"], "bindings": {{"id": "id"}}}}"#),
            400,
            r#"{"error":{"category":"registration","message":"wrapper error (permanent): wrapper 'w3' repeats attribute 'id'"}}"#,
        ),
        (
            "/steward/wrappers",
            r#"{"name": "w3", "source": "Nowhere", "version": 1, "payload": "[]", "attributes": ["id"], "bindings": {"id": "id"}}"#.to_string(),
            400,
            r#"{"error":{"category":"registration","message":"unknown data source 'Nowhere'; register it first"}}"#,
        ),
        (
            "/steward/wrappers",
            r#"{"name": "w1", "source": "PlayersAPI", "version": 9, "payload": "[]", "attributes": ["id"], "bindings": {"id": "id"}}"#.to_string(),
            400,
            r#"{"error":{"category":"registration","message":"wrapper 'w1' is already registered"}}"#,
        ),
        (
            "/steward/mappings",
            r#"{"concepts": ["ex:Player"]}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing string field 'wrapper'"}}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w9", "concepts": ["ex:Player"]}"#.to_string(),
            400,
            r#"{"error":{"category":"mapping","message":"wrapper 'w9' is not registered"}}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w1", "concepts": ["ex:Player"]}"#.to_string(),
            400,
            r#"{"error":{"category":"mapping","message":"wrapper 'w1' already has a mapping"}}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w3", "concepts": ["zz:X"]}"#.to_string(),
            400,
            r#"{"error":{"category":"walk","message":"unknown prefix in 'zz:X'"}}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w3", "concepts": [1]}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"'concepts' must hold strings"}}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w3", "features": [true]}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"'features' must hold strings"}}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w3", "relations": [{"from": "ex:Player", "to": "sc:SportsTeam"}]}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing string field 'property'"}}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w3", "same_as": [{"feature": "ex:playerId"}]}"#.to_string(),
            400,
            r#"{"error":{"category":"protocol","message":"missing string field 'attribute'"}}"#,
        ),
        (
            "/steward/mappings",
            r#"{"wrapper": "w3"}"#.to_string(),
            400,
            r#"{"error":{"category":"mapping","message":"wrapper 'w3' is not registered"}}"#,
        ),
    ]
}

#[test]
fn steward_responses_are_pinned() {
    let state = fresh();
    for (path, body, status, expected) in table() {
        let (got_status, got) = post(&state, path, &body);
        assert_eq!(
            (got_status, got.as_str()),
            (status, expected),
            "POST {path} {body}"
        );
    }
    assert_eq!(state.mdm.read().unwrap().epoch(), 14);
}

/// A present field of the wrong type, or an array element of the wrong
/// type, is a 400 `protocol` error naming the field — never silently read
/// as absent (which registered a plain feature for `"identifier": "true"`
/// and a one-attribute wrapper for `["id", 7]`).
#[test]
fn wrongly_typed_fields_are_protocol_errors() {
    let mapping = r#""wrapper": "w1", "concepts": ["ex:Player"], "features": ["ex:playerId"]"#;
    let cases = [
        (
            "identifier",
            "/steward/features",
            r#"{"concept": "ex:Player", "feature": "ex:height", "identifier": "true"}"#.to_string(),
        ),
        (
            "attributes",
            "/steward/wrappers",
            format!(r#"{{{W}, "attributes": ["id", 7], "bindings": {{"id": "id"}}}}"#),
        ),
        (
            "format",
            "/steward/wrappers",
            format!(r#"{{{W}, "format": 1, "attributes": ["id"], "bindings": {{"id": "id"}}}}"#),
        ),
        (
            "notes",
            "/steward/wrappers",
            format!(r#"{{{W}, "notes": [], "attributes": ["id"], "bindings": {{"id": "id"}}}}"#),
        ),
        (
            "concepts",
            "/steward/mappings",
            r#"{"wrapper": "w1", "concepts": "<http://www.essi.upc.edu/~snadal/example/Player>"}"#
                .to_string(),
        ),
        (
            "features",
            "/steward/mappings",
            r#"{"wrapper": "w1", "concepts": ["ex:Player"], "features": "ex:playerId"}"#
                .to_string(),
        ),
        (
            "relations",
            "/steward/mappings",
            format!(
                r#"{{{mapping}, "relations": {{"from": "ex:Player", "property": "ex:hasTeam", "to": "sc:SportsTeam"}}}}"#
            ),
        ),
        (
            "relations",
            "/steward/mappings",
            format!(r#"{{{mapping}, "relations": ["ex:hasTeam"]}}"#),
        ),
        (
            "same_as",
            "/steward/mappings",
            format!(r#"{{{mapping}, "same_as": {{"attribute": "id", "feature": "ex:playerId"}}}}"#),
        ),
        (
            "same_as",
            "/steward/mappings",
            format!(r#"{{{mapping}, "same_as": ["id"]}}"#),
        ),
    ];
    // Each case on its own system, so one wrongly accepted body cannot
    // mask the next; every case that is not rejected as it should be is
    // reported.
    let mut accepted = Vec::new();
    for (field, path, body) in cases {
        let state = fresh();
        for (setup, setup_body, _, _) in &table()[..12] {
            assert_eq!(
                post(&state, setup, setup_body).0,
                200,
                "{setup} {setup_body}"
            );
        }
        let (status, text) = post(&state, path, &body);
        let rejected = status == 400
            && text.contains(r#""category":"protocol""#)
            && text.contains(&format!("'{field}'"))
            && state.mdm.read().unwrap().epoch() == 12;
        if !rejected {
            accepted.push(format!("{field}: POST {path} {body} -> {status} {text}"));
        }
    }
    assert!(accepted.is_empty(), "{}", accepted.join("\n"));
}

//! The privacy-rule model and its JSON codec (Fig. 4).
//!
//! A rule couples [`Conditions`] — all of which must hold for the rule to
//! apply — with an [`Action`]. Conditions left unspecified match
//! everything, so `{"Action": "Deny"}` is a blanket deny and the Fig. 4
//! rule `{"Consumer": ["Bob"], "LocationLabel": ["UCLA"], "Action":
//! "Allow"}` shares all data collected at UCLA with Bob.

use crate::abstraction::{ActivityAbs, BinaryAbs, LocationAbs, TimeAbs};
use sensorsafe_json::{Map, Reader, Value};
use sensorsafe_types::{
    ChannelId, ConsumerId, ContextKind, GroupId, Region, RepeatTime, StudyId, TimeOfDay, TimeRange,
    Timestamp, Weekday,
};

/// Who a rule's consumer condition selects (Table 1: "User Name, Group
/// Name, Study Name").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConsumerSelector {
    /// A single consumer by unique user name.
    User(ConsumerId),
    /// Every member of a named group.
    Group(GroupId),
    /// Every consumer enrolled in a named study.
    Study(StudyId),
}

/// Location condition: matches if the window's location carries one of
/// the labels **or** falls inside one of the regions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LocationCondition {
    /// Pre-defined labels ("UCLA", "home", "work").
    pub labels: Vec<String>,
    /// Map-drawn bounding boxes.
    pub regions: Vec<Region>,
}

impl LocationCondition {
    /// True if no label and no region is given (matches nothing — an
    /// empty condition should be `None` at the [`Conditions`] level).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty() && self.regions.is_empty()
    }
}

/// Time condition: matches if the instant is inside any range **or** any
/// repeated window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeCondition {
    /// Continuous ranges ("from Feb. 2011 to Mar. 2011").
    pub ranges: Vec<TimeRange>,
    /// Repeated windows ("3-6pm on every Wednesday").
    pub repeats: Vec<RepeatTime>,
}

impl TimeCondition {
    /// True if no range and no repeat is given.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty() && self.repeats.is_empty()
    }

    /// Whether the instant satisfies the condition.
    pub fn contains(&self, t: Timestamp) -> bool {
        self.ranges.iter().any(|r| r.contains(t)) || self.repeats.iter().any(|r| r.contains(t))
    }
}

/// All conditions of one privacy rule. Unspecified (empty/`None`) parts
/// match everything.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conditions {
    /// Affected consumers; empty = all consumers.
    pub consumers: Vec<ConsumerSelector>,
    /// Where the data was collected; `None` = anywhere.
    pub location: Option<LocationCondition>,
    /// When the data was collected; `None` = any time.
    pub time: Option<TimeCondition>,
    /// Which sensor channels the action applies to; empty = all channels.
    pub sensors: Vec<ChannelId>,
    /// Behavioral contexts during which the rule applies ("while I am
    /// driving"); empty = regardless of context.
    pub contexts: Vec<ContextKind>,
}

/// Per-ladder levels set by an abstraction action (Table 1b). `None`
/// leaves a ladder untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbstractionSpec {
    /// Location ladder level.
    pub location: Option<LocationAbs>,
    /// Time ladder level.
    pub time: Option<TimeAbs>,
    /// Activity ladder level.
    pub activity: Option<ActivityAbs>,
    /// Stress ladder level.
    pub stress: Option<BinaryAbs>,
    /// Smoking ladder level.
    pub smoking: Option<BinaryAbs>,
    /// Conversation ladder level.
    pub conversation: Option<BinaryAbs>,
}

impl AbstractionSpec {
    /// True if the spec sets no level at all (such an action is invalid).
    pub fn is_empty(&self) -> bool {
        self.location.is_none()
            && self.time.is_none()
            && self.activity.is_none()
            && self.stress.is_none()
            && self.smoking.is_none()
            && self.conversation.is_none()
    }
}

/// What a rule does when its conditions match.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Share raw data.
    Allow,
    /// Share nothing.
    Deny,
    /// Share, but at coarser abstraction levels.
    Abstraction(AbstractionSpec),
}

/// One privacy rule.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyRule {
    /// When the rule applies.
    pub conditions: Conditions,
    /// What it does.
    pub action: Action,
}

/// Errors decoding rules from JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleError(pub String);

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid privacy rule: {}", self.0)
    }
}

impl std::error::Error for RuleError {}

fn err(msg: impl Into<String>) -> RuleError {
    RuleError(msg.into())
}

impl PrivacyRule {
    /// A blanket allow-everything rule (used by §6's Alice: "allows the
    /// researchers to access all the data" is this with a consumer
    /// condition).
    pub fn allow_all() -> PrivacyRule {
        PrivacyRule {
            conditions: Conditions::default(),
            action: Action::Allow,
        }
    }

    /// Serializes one rule to its Fig. 4 JSON object.
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        let c = &self.conditions;
        let mut users = Vec::new();
        let mut groups = Vec::new();
        let mut studies = Vec::new();
        for sel in &c.consumers {
            match sel {
                ConsumerSelector::User(u) => users.push(Value::from(u.as_str())),
                ConsumerSelector::Group(g) => groups.push(Value::from(g.as_str())),
                ConsumerSelector::Study(s) => studies.push(Value::from(s.as_str())),
            }
        }
        if !users.is_empty() {
            obj.insert("Consumer".into(), Value::Array(users));
        }
        if !groups.is_empty() {
            obj.insert("Group".into(), Value::Array(groups));
        }
        if !studies.is_empty() {
            obj.insert("Study".into(), Value::Array(studies));
        }
        if let Some(loc) = &c.location {
            if !loc.labels.is_empty() {
                obj.insert(
                    "LocationLabel".into(),
                    Value::Array(loc.labels.iter().map(Value::from).collect()),
                );
            }
            if !loc.regions.is_empty() {
                obj.insert(
                    "Region".into(),
                    Value::Array(
                        loc.regions
                            .iter()
                            .map(|r| {
                                let mut m = Map::new();
                                m.insert("south".into(), Value::from(r.south));
                                m.insert("north".into(), Value::from(r.north));
                                m.insert("west".into(), Value::from(r.west));
                                m.insert("east".into(), Value::from(r.east));
                                Value::Object(m)
                            })
                            .collect(),
                    ),
                );
            }
        }
        if let Some(time) = &c.time {
            if !time.ranges.is_empty() {
                obj.insert(
                    "TimeRange".into(),
                    Value::Array(
                        time.ranges
                            .iter()
                            .map(|r| {
                                let mut m = Map::new();
                                m.insert("start".into(), Value::from(r.start.millis()));
                                m.insert("end".into(), Value::from(r.end.millis()));
                                Value::Object(m)
                            })
                            .collect(),
                    ),
                );
            }
            for rep in &time.repeats {
                // Fig. 4 shows a single RepeatTime object per rule; we
                // serialize the first and inline extras as an array when
                // needed.
                let mut m = Map::new();
                if !rep.days.is_empty() {
                    m.insert(
                        "Day".into(),
                        Value::Array(rep.days.iter().map(|d| Value::from(d.as_str())).collect()),
                    );
                }
                m.insert(
                    "HourMin".into(),
                    Value::Array(vec![
                        Value::from(rep.from.to_wire()),
                        Value::from(rep.to.to_wire()),
                    ]),
                );
                match obj.get_mut("RepeatTime") {
                    None => {
                        obj.insert("RepeatTime".into(), Value::Object(m));
                    }
                    Some(existing) => {
                        // Promote to an array on the second repeat.
                        let prev = std::mem::take(existing);
                        let mut arr = match prev {
                            Value::Array(a) => a,
                            single => vec![single],
                        };
                        arr.push(Value::Object(m));
                        *existing = Value::Array(arr);
                    }
                }
            }
        }
        if !c.sensors.is_empty() {
            obj.insert(
                "Sensor".into(),
                Value::Array(c.sensors.iter().map(|s| Value::from(s.as_str())).collect()),
            );
        }
        if !c.contexts.is_empty() {
            obj.insert(
                "Context".into(),
                Value::Array(c.contexts.iter().map(|k| Value::from(k.as_str())).collect()),
            );
        }
        obj.insert(
            "Action".into(),
            match &self.action {
                Action::Allow => Value::from("Allow"),
                Action::Deny => Value::from("Deny"),
                Action::Abstraction(spec) => {
                    let mut abs = Map::new();
                    if let Some(l) = spec.location {
                        abs.insert("Location".into(), Value::from(l.as_str()));
                    }
                    if let Some(t) = spec.time {
                        abs.insert("Time".into(), Value::from(t.as_str()));
                    }
                    if let Some(a) = spec.activity {
                        abs.insert("Activity".into(), Value::from(a.as_str()));
                    }
                    if let Some(s) = spec.stress {
                        abs.insert("Stress".into(), Value::from(s.as_str()));
                    }
                    if let Some(s) = spec.smoking {
                        abs.insert("Smoking".into(), Value::from(s.as_str()));
                    }
                    if let Some(s) = spec.conversation {
                        abs.insert("Conversation".into(), Value::from(s.as_str()));
                    }
                    let mut outer = Map::new();
                    outer.insert("Abstraction".into(), Value::Object(abs));
                    Value::Object(outer)
                }
            },
        );
        Value::Object(obj)
    }

    /// Decodes one rule from its JSON object form.
    pub fn from_json(value: &Value) -> Result<PrivacyRule, RuleError> {
        let obj = value
            .as_object()
            .ok_or_else(|| err("rule must be a JSON object"))?;
        // Reject unknown keys early: a typo'd condition silently matching
        // everything would be a privacy bug.
        const KNOWN: [&str; 10] = [
            "Consumer",
            "Group",
            "Study",
            "LocationLabel",
            "Region",
            "TimeRange",
            "RepeatTime",
            "Sensor",
            "Context",
            "Action",
        ];
        for key in obj.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(err(format!("unknown rule key '{key}'")));
            }
        }
        let mut consumers = Vec::new();
        if let Some(v) = obj.get("Consumer") {
            for name in v
                .as_string_list()
                .ok_or_else(|| err("Consumer must be a string or string array"))?
            {
                consumers.push(ConsumerSelector::User(ConsumerId::new(name)));
            }
        }
        if let Some(v) = obj.get("Group") {
            for name in v
                .as_string_list()
                .ok_or_else(|| err("Group must be a string or string array"))?
            {
                consumers.push(ConsumerSelector::Group(GroupId::new(name)));
            }
        }
        if let Some(v) = obj.get("Study") {
            for name in v
                .as_string_list()
                .ok_or_else(|| err("Study must be a string or string array"))?
            {
                consumers.push(ConsumerSelector::Study(StudyId::new(name)));
            }
        }
        let mut location = LocationCondition::default();
        if let Some(v) = obj.get("LocationLabel") {
            location.labels = v
                .as_string_list()
                .ok_or_else(|| err("LocationLabel must be a string or string array"))?;
        }
        if let Some(v) = obj.get("Region") {
            let items = v.as_array().ok_or_else(|| err("Region must be an array"))?;
            for item in items {
                let get = |k: &str| {
                    item.get(k)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| err(format!("Region missing '{k}'")))
                };
                let (south, north) = (get("south")?, get("north")?);
                if south > north {
                    return Err(err("Region south edge above north edge"));
                }
                location
                    .regions
                    .push(Region::new(south, north, get("west")?, get("east")?));
            }
        }
        let mut time = TimeCondition::default();
        if let Some(v) = obj.get("TimeRange") {
            let items = v
                .as_array()
                .ok_or_else(|| err("TimeRange must be an array"))?;
            for item in items {
                let start = item
                    .get("start")
                    .and_then(Value::as_i64)
                    .ok_or_else(|| err("TimeRange missing 'start'"))?;
                let end = item
                    .get("end")
                    .and_then(Value::as_i64)
                    .ok_or_else(|| err("TimeRange missing 'end'"))?;
                if end < start {
                    return Err(err("TimeRange end before start"));
                }
                time.ranges.push(TimeRange::new(
                    Timestamp::from_millis(start),
                    Timestamp::from_millis(end),
                ));
            }
        }
        if let Some(v) = obj.get("RepeatTime") {
            let entries: Vec<&Value> = match v {
                Value::Array(a) => a.iter().collect(),
                other => vec![other],
            };
            for entry in entries {
                time.repeats.push(parse_repeat(entry)?);
            }
        }
        let mut sensors = Vec::new();
        if let Some(v) = obj.get("Sensor") {
            for name in v
                .as_string_list()
                .ok_or_else(|| err("Sensor must be a string or string array"))?
            {
                sensors.push(
                    ChannelId::try_new(name).ok_or_else(|| err("invalid sensor channel name"))?,
                );
            }
        }
        let mut contexts = Vec::new();
        if let Some(v) = obj.get("Context") {
            for name in v
                .as_string_list()
                .ok_or_else(|| err("Context must be a string or string array"))?
            {
                contexts.push(
                    ContextKind::parse(&name)
                        .ok_or_else(|| err(format!("unknown context '{name}'")))?,
                );
            }
        }
        let action_json = obj
            .get("Action")
            .ok_or_else(|| err("rule missing 'Action'"))?;
        let action = parse_action(action_json)?;
        Ok(PrivacyRule {
            conditions: Conditions {
                consumers,
                location: (!location.is_empty()).then_some(location),
                time: (!time.is_empty()).then_some(time),
                sensors,
                contexts,
            },
            action,
        })
    }

    /// Parses a whole rule document: a JSON array of rules (Fig. 4) or a
    /// single rule object. Accepts the paper's single-quoted style.
    pub fn parse_rules(text: &str) -> Result<Vec<PrivacyRule>, RuleError> {
        let value = Reader::lenient(text)
            .document()
            .map_err(|e| err(format!("JSON: {e}")))?;
        PrivacyRule::rules_from_json(&value)
    }

    /// Decodes a rule document that is already a JSON value (a field of a
    /// request body): an array of rules or a single rule object.
    pub fn rules_from_json(value: &Value) -> Result<Vec<PrivacyRule>, RuleError> {
        match value {
            Value::Array(items) => items.iter().map(PrivacyRule::from_json).collect(),
            Value::Object(_) => Ok(vec![PrivacyRule::from_json(value)?]),
            _ => Err(err("rule document must be an object or array")),
        }
    }

    /// Serializes a rule list to a JSON array.
    pub fn rules_to_json(rules: &[PrivacyRule]) -> Value {
        Value::Array(rules.iter().map(PrivacyRule::to_json).collect())
    }
}

fn parse_repeat(entry: &Value) -> Result<RepeatTime, RuleError> {
    let days = match entry.get("Day") {
        None => Vec::new(),
        Some(v) => v
            .as_string_list()
            .ok_or_else(|| err("RepeatTime.Day must be a string array"))?
            .iter()
            .map(|d| Weekday::parse(d).ok_or_else(|| err(format!("unknown weekday '{d}'"))))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let hours = entry
        .get("HourMin")
        .and_then(Value::as_array)
        .ok_or_else(|| err("RepeatTime missing 'HourMin'"))?;
    if hours.len() != 2 {
        return Err(err("RepeatTime.HourMin must have exactly two entries"));
    }
    let parse_tod = |v: &Value| {
        v.as_str()
            .and_then(TimeOfDay::parse)
            .ok_or_else(|| err("invalid HourMin time"))
    };
    Ok(RepeatTime::new(
        days,
        parse_tod(&hours[0])?,
        parse_tod(&hours[1])?,
    ))
}

fn parse_action(v: &Value) -> Result<Action, RuleError> {
    match v {
        Value::String(s) if s == "Allow" => Ok(Action::Allow),
        Value::String(s) if s == "Deny" => Ok(Action::Deny),
        Value::String(s) => Err(err(format!("unknown action '{s}'"))),
        Value::Object(obj) => {
            let abs = obj
                .get("Abstraction")
                .and_then(Value::as_object)
                .ok_or_else(|| err("object action must be {'Abstraction': {...}}"))?;
            let mut spec = AbstractionSpec::default();
            for (key, level) in abs.iter() {
                let name = level
                    .as_str()
                    .ok_or_else(|| err("abstraction level must be a string"))?;
                // Table 1(b) writes "NotShared" / context-specific label
                // names; normalize the aliases the paper uses.
                match key.as_str() {
                    "Location" => {
                        spec.location = Some(
                            LocationAbs::parse(name)
                                .ok_or_else(|| err(format!("bad Location level '{name}'")))?,
                        )
                    }
                    "Time" => {
                        spec.time = Some(
                            TimeAbs::parse(name)
                                .ok_or_else(|| err(format!("bad Time level '{name}'")))?,
                        )
                    }
                    "Activity" => {
                        spec.activity = Some(
                            ActivityAbs::parse(name)
                                .ok_or_else(|| err(format!("bad Activity level '{name}'")))?,
                        )
                    }
                    "Stress" => {
                        spec.stress = Some(parse_binary_level(name, "Stress")?);
                    }
                    "Smoking" | "Smoke" => {
                        spec.smoking = Some(parse_binary_level(name, "Smoking")?);
                    }
                    "Conversation" => {
                        spec.conversation = Some(parse_binary_level(name, "Conversation")?);
                    }
                    other => return Err(err(format!("unknown abstraction target '{other}'"))),
                }
            }
            if spec.is_empty() {
                return Err(err("abstraction action sets no level"));
            }
            Ok(Action::Abstraction(spec))
        }
        _ => Err(err("action must be a string or object")),
    }
}

fn parse_binary_level(name: &str, target: &str) -> Result<BinaryAbs, RuleError> {
    BinaryAbs::parse(name).ok_or_else(|| err(format!("bad {target} level '{name}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact rule document from the paper's Fig. 4.
    pub const FIG4: &str = r#"[{ 'Consumer': ['Bob'],
 'LocationLabel': ['UCLA'],
 'Action': 'Allow'
},
{ 'Consumer': ['Bob'],
 'LocationLabel': ['UCLA'],
 'RepeatTime': { 'Day': ['Mon', 'Tue', 'Wed', 'Thu', 'Fri'],
 'HourMin': ['9:00am', '6:00pm']},
 'Context': ['Conversation'],
 'Action': { 'Abstraction': { 'Stress': 'NotShared' } }
}]"#;

    #[test]
    fn fig4_parses_verbatim() {
        let rules = PrivacyRule::parse_rules(FIG4).unwrap();
        assert_eq!(rules.len(), 2);
        let first = &rules[0];
        assert_eq!(
            first.conditions.consumers,
            vec![ConsumerSelector::User(ConsumerId::new("Bob"))]
        );
        assert_eq!(
            first.conditions.location.as_ref().unwrap().labels,
            vec!["UCLA"]
        );
        assert_eq!(first.action, Action::Allow);
        let second = &rules[1];
        let repeat = &second.conditions.time.as_ref().unwrap().repeats[0];
        assert_eq!(repeat.days, Weekday::WORKDAYS.to_vec());
        assert_eq!(repeat.from, TimeOfDay::new(9, 0));
        assert_eq!(repeat.to, TimeOfDay::new(18, 0));
        assert_eq!(second.conditions.contexts, vec![ContextKind::Conversation]);
        assert_eq!(
            second.action,
            Action::Abstraction(AbstractionSpec {
                stress: Some(BinaryAbs::NotShared),
                ..Default::default()
            })
        );
    }

    #[test]
    fn roundtrip_fig4() {
        let rules = PrivacyRule::parse_rules(FIG4).unwrap();
        let json = PrivacyRule::rules_to_json(&rules);
        let back = PrivacyRule::parse_rules(&json.to_string()).unwrap();
        assert_eq!(back, rules);
    }

    #[test]
    fn roundtrip_every_condition_kind() {
        let rule = PrivacyRule {
            conditions: Conditions {
                consumers: vec![
                    ConsumerSelector::User(ConsumerId::new("bob")),
                    ConsumerSelector::Group(GroupId::new("researchers")),
                    ConsumerSelector::Study(StudyId::new("stress-study")),
                ],
                location: Some(LocationCondition {
                    labels: vec!["home".into()],
                    regions: vec![Region::new(34.0, 34.1, -118.5, -118.4)],
                }),
                time: Some(TimeCondition {
                    ranges: vec![TimeRange::new(Timestamp(1000), Timestamp(2000))],
                    repeats: vec![
                        RepeatTime::weekdays_nine_to_six(),
                        RepeatTime::new(
                            vec![Weekday::Sat],
                            TimeOfDay::new(1, 0),
                            TimeOfDay::new(2, 0),
                        ),
                    ],
                }),
                sensors: vec![ChannelId::new("ecg"), ChannelId::new("respiration")],
                contexts: vec![ContextKind::Drive, ContextKind::Stress],
            },
            action: Action::Abstraction(AbstractionSpec {
                location: Some(LocationAbs::City),
                time: Some(TimeAbs::Day),
                activity: Some(ActivityAbs::MoveNotMove),
                stress: Some(BinaryAbs::Label),
                smoking: Some(BinaryAbs::NotShared),
                conversation: Some(BinaryAbs::Raw),
            }),
        };
        let json = rule.to_json();
        let back = PrivacyRule::from_json(&json).unwrap();
        assert_eq!(back, rule);
    }

    #[test]
    fn single_object_document() {
        let rules = PrivacyRule::parse_rules(r#"{"Action": "Deny"}"#).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].action, Action::Deny);
        assert!(rules[0].conditions.consumers.is_empty());
    }

    #[test]
    fn scalar_consumer_accepted() {
        let rules = PrivacyRule::parse_rules(r#"{"Consumer": "Bob", "Action": "Allow"}"#).unwrap();
        assert_eq!(
            rules[0].conditions.consumers,
            vec![ConsumerSelector::User(ConsumerId::new("Bob"))]
        );
    }

    #[test]
    fn rejects_unknown_keys() {
        let e =
            PrivacyRule::parse_rules(r#"{"Consmuer": ["Bob"], "Action": "Allow"}"#).unwrap_err();
        assert!(e.0.contains("Consmuer"), "{e}");
    }

    #[test]
    fn rejects_missing_action() {
        assert!(PrivacyRule::parse_rules(r#"{"Consumer": ["Bob"]}"#).is_err());
    }

    #[test]
    fn rejects_bad_action() {
        assert!(PrivacyRule::parse_rules(r#"{"Action": "Maybe"}"#).is_err());
        assert!(PrivacyRule::parse_rules(r#"{"Action": {"Abstraction": {}}}"#).is_err());
        assert!(PrivacyRule::parse_rules(r#"{"Action": 42}"#).is_err());
        assert!(
            PrivacyRule::parse_rules(r#"{"Action": {"Abstraction": {"Stress": "Loud"}}}"#).is_err()
        );
        assert!(
            PrivacyRule::parse_rules(r#"{"Action": {"Abstraction": {"Blood": "Raw"}}}"#).is_err()
        );
    }

    #[test]
    fn rejects_bad_conditions() {
        assert!(PrivacyRule::parse_rules(r#"{"Context": ["Flying"], "Action": "Deny"}"#).is_err());
        assert!(PrivacyRule::parse_rules(
            r#"{"RepeatTime": {"HourMin": ["9:00am"]}, "Action": "Deny"}"#
        )
        .is_err());
        assert!(PrivacyRule::parse_rules(
            r#"{"RepeatTime": {"Day": ["Monday"], "HourMin": ["9:00am","5:00pm"]}, "Action": "Deny"}"#
        )
        .is_err());
        assert!(PrivacyRule::parse_rules(
            r#"{"TimeRange": [{"start": 100, "end": 50}], "Action": "Deny"}"#
        )
        .is_err());
        assert!(PrivacyRule::parse_rules(
            r#"{"Region": [{"south": 2.0, "north": 1.0, "west": 0.0, "east": 1.0}], "Action": "Deny"}"#
        )
        .is_err());
        assert!(PrivacyRule::parse_rules(r#"{"Consumer": [5], "Action": "Deny"}"#).is_err());
    }

    #[test]
    fn smoke_alias_for_smoking_target() {
        let rules =
            PrivacyRule::parse_rules(r#"{"Action": {"Abstraction": {"Smoke": "NotShared"}}}"#)
                .unwrap();
        assert_eq!(
            rules[0].action,
            Action::Abstraction(AbstractionSpec {
                smoking: Some(BinaryAbs::NotShared),
                ..Default::default()
            })
        );
    }

    #[test]
    fn multiple_repeats_roundtrip_as_array() {
        let rule = PrivacyRule {
            conditions: Conditions {
                time: Some(TimeCondition {
                    ranges: vec![],
                    repeats: vec![
                        RepeatTime::new(
                            vec![Weekday::Mon],
                            TimeOfDay::new(9, 0),
                            TimeOfDay::new(10, 0),
                        ),
                        RepeatTime::new(
                            vec![Weekday::Tue],
                            TimeOfDay::new(14, 0),
                            TimeOfDay::new(15, 0),
                        ),
                    ],
                }),
                ..Default::default()
            },
            action: Action::Deny,
        };
        let back = PrivacyRule::from_json(&rule.to_json()).unwrap();
        assert_eq!(back, rule);
    }

    #[test]
    fn allow_all_is_minimal() {
        let rule = PrivacyRule::allow_all();
        let json = rule.to_json();
        assert_eq!(json.to_string(), r#"{"Action":"Allow"}"#);
    }
}
